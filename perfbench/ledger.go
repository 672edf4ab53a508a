package main

import (
	"time"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// timedSchedule measures the dynnet layer from outside: it forwards both
// Graph and GraphInto, so the engine's router keeps its in-place,
// allocation-free path, and adds up the time and links of every call.
type timedSchedule struct {
	inner dynnet.InPlaceSchedule
	busy  time.Duration
	calls int
	links int64
}

var _ dynnet.InPlaceSchedule = (*timedSchedule)(nil)

func (s *timedSchedule) N() int { return s.inner.N() }

func (s *timedSchedule) Graph(t int) *dynnet.Multigraph {
	start := time.Now()
	g := s.inner.Graph(t)
	s.note(start, g)
	return g
}

func (s *timedSchedule) GraphInto(t int, g *dynnet.Multigraph) {
	start := time.Now()
	s.inner.GraphInto(t, g)
	s.note(start, g)
}

// note counts the canonical links inside the timed interval: the router
// asks for them next and gets the memoized list, so canonicalisation is
// billed to dynnet either way.
func (s *timedSchedule) note(start time.Time, g *dynnet.Multigraph) {
	s.links += int64(len(g.CanonicalLinks()))
	s.busy += time.Since(start)
	s.calls++
}

// roundSpan is one simulated round of a traced run, closed by the engine's
// Trace callback for that round.
type roundSpan struct {
	end     time.Duration // since the run started
	graph   time.Duration // dynnet busy time inside the round
	bits    int64         // bits sent in the round (congested protocol only)
	uniform bool          // every sent message equal (congested protocol only)
}

// runSpan is one traced run with its rounds.
type runSpan struct {
	spec   uint64
	start  time.Time
	wall   time.Duration
	rounds []roundSpan
}

// gaps returns the durations of the run's rounds in the given unit: the
// time between successive Trace callbacks, the first from the run's start.
func (s runSpan) gaps(unit time.Duration) []float64 {
	out := make([]float64, len(s.rounds))
	prev := time.Duration(0)
	for i, r := range s.rounds {
		out[i] = float64(r.end-prev) / float64(unit)
		prev = r.end
	}
	return out
}

// tracer records round spans from the Trace hook. Message sizes and
// uniformity are read only for the congested protocol, whose wire.Message
// boxes the benchmark can size; the linear protocol bills its view sizes
// inside the program.
type tracer struct {
	sched     *timedSchedule
	congested bool
	span      runSpan
	lastGraph time.Duration

	// one-entry size memo: during a broadcast every process sends the
	// same message.
	lastMsg  wire.Message
	lastBits int
}

func newTracer(sched *timedSchedule, congested bool, specSeed uint64, roundsHint int) *tracer {
	return &tracer{
		sched:     sched,
		congested: congested,
		span:      runSpan{spec: specSeed, rounds: make([]roundSpan, 0, roundsHint)},
		lastBits:  -1,
	}
}

func (tr *tracer) begin() { tr.span.start = time.Now() }

func (tr *tracer) end() { tr.span.wall = time.Since(tr.span.start) }

func (tr *tracer) hook(_ int, sent []engine.Message) {
	rs := roundSpan{end: time.Since(tr.span.start)}
	rs.graph = tr.sched.busy - tr.lastGraph
	tr.lastGraph = tr.sched.busy
	if tr.congested && len(sent) > 0 {
		rs.uniform = true
		first, _ := wire.FromBox(sent[0])
		for i, box := range sent {
			m := first
			if i > 0 && box != sent[0] {
				m, _ = wire.FromBox(box)
				if !wire.Equal(m, first) {
					rs.uniform = false
				}
			}
			if tr.lastBits < 0 || !wire.Equal(m, tr.lastMsg) {
				tr.lastMsg, tr.lastBits = m, wire.SizeBits(m)
			}
			rs.bits += int64(tr.lastBits)
		}
	}
	tr.span.rounds = append(tr.span.rounds, rs)
}

// nullRoute runs echo coroutines that only send a fixed message for the
// given number of rounds over the schedule, the engine's cost with no
// protocol work. It returns the run's wall time and the dynnet part of it.
func nullRoute(sched dynnet.InPlaceSchedule, rounds int) (wall, graph time.Duration, err error) {
	ts := &timedSchedule{inner: sched}
	n := sched.N()
	msg := engine.Message(&wire.Message{Label: wire.LabelNull})
	procs := make([]engine.Coroutine, n)
	for i := range procs {
		procs[i] = engine.CoroutineFunc(func(t *engine.Transport) (any, error) {
			for range rounds {
				if _, err := t.SendAndReceive(msg); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
	}
	// Size accounting with a one-entry memo, as the protocols' own
	// accounting costs for a broadcast message.
	var last engine.Message
	lastBits := 0
	sizeOf := func(m engine.Message) int {
		if m != last {
			last, lastBits = m, wire.SizeOf(m)
		}
		return lastBits
	}
	start := time.Now()
	_, err = engine.Run(engine.Config{Schedule: ts, MaxRounds: rounds + 1, SizeOf: sizeOf, Deadline: runDeadline}, procs)
	return time.Since(start), ts.busy, err
}

// replaySolve re-solves the run's final VHT level by level through a fresh
// incremental solver, the work the deciding process's solver did.
func replaySolve(res *core.RunResult) (time.Duration, error) {
	t := res.VHT
	if t == nil {
		return 0, nil
	}
	s := historytree.NewSolver()
	start := time.Now()
	for l := 1; l <= res.Stats.Levels && l <= t.Depth(); l++ {
		if _, err := s.CountAt(t, l); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
