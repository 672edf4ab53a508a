package engine_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/wire"
)

// The relay contract: Transport.Relay is observably the same as running
// the phase as per-round SendAndReceive calls that keep the
// highest-priority message among the held one and each round's
// deliveries, publishing it at block ends. These tests run one scripted
// protocol both ways and require identical Results and Trace streams.

// relayHigher is the relay order of these tests: core's message priority.
// Begin (and Null, End, Halt) messages tie whatever their parameters, so
// distinct values compare equal and the fold's tie-breaking shows.
func relayHigher(a, b engine.Message) bool {
	return core.Higher(*a.(*wire.Message), *b.(*wire.Message))
}

// witnessRelay is the per-round witness of Transport.Relay.
func witnessRelay(t *engine.Transport, m engine.Message, blocks, block int, stop func(engine.Message) bool) (engine.Message, error) {
	held, published := m, m
	for b := 0; b < blocks; b++ {
		for r := 0; r < block; r++ {
			msgs, err := t.SendAndReceive(published)
			if err != nil {
				return nil, err
			}
			for _, d := range msgs {
				if relayHigher(d, held) {
					held = d
				}
			}
		}
		published = held
		if stop != nil && stop(held) {
			break
		}
	}
	return held, nil
}

// relayPhase is one step of a scripted process: plain SendAndReceive
// rounds, then a relay.
type relayPhase struct {
	plain  int
	blocks int
	block  int
	stop   func(engine.Message) bool
}

func stopAlways(engine.Message) bool { return true }

func stopOnEdge(m engine.Message) bool { return m.(*wire.Message).Label == wire.LabelEdge }

// originate returns the fresh message process pid sends in phase k: mostly
// tying Begins with distinct IDs, plus Nulls, Dones and a few Edges.
func originate(pid, k int) *wire.Message {
	id := int64((pid*7 + k*3) % 11)
	var m wire.Message
	switch (pid + 2*k) % 6 {
	case 0, 1, 2:
		m = wire.Begin(id)
	case 3:
		m = wire.Null()
	case 4:
		m = wire.Done(id)
	default:
		m = wire.Edge(id, id%3, 1)
	}
	return &m
}

// relayScript draws process pid's phases. Lifetimes differ per process, so
// neighbours return while others are mid-relay.
func relayScript(rng *rand.Rand, blockLens []int) []relayPhase {
	stops := []func(engine.Message) bool{nil, nil, stopAlways, stopOnEdge}
	script := make([]relayPhase, 1+rng.IntN(5))
	for i := range script {
		script[i] = relayPhase{
			plain:  rng.IntN(3),
			blocks: rng.IntN(6),
			block:  blockLens[rng.IntN(len(blockLens))],
			stop:   stops[rng.IntN(len(stops))],
		}
	}
	return script
}

// scriptedProc runs a script with Relay (relay=true) or with the witness,
// and outputs the log of everything it received and ended on.
func scriptedProc(pid int, script []relayPhase, relay bool) engine.Coroutine {
	return engine.CoroutineFunc(func(t *engine.Transport) (any, error) {
		var log strings.Builder
		for k, ph := range script {
			msg := engine.Message(originate(pid, k))
			for i := 0; i < ph.plain; i++ {
				msgs, err := t.SendAndReceive(msg)
				if err != nil {
					return nil, err
				}
				for _, m := range msgs {
					fmt.Fprintf(&log, "%v;", *m.(*wire.Message))
				}
			}
			var top engine.Message
			var err error
			if relay {
				top, err = t.Relay(msg, ph.blocks, ph.block, ph.stop)
			} else {
				top, err = witnessRelay(t, msg, ph.blocks, ph.block, ph.stop)
			}
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&log, "|%v@%d|", *top.(*wire.Message), t.Round())
		}
		return log.String(), nil
	})
}

// runScripted runs one script per process on cfg, with Relay or with the
// witness, and returns the Result and the Trace stream by value.
func runScripted(t *testing.T, cfg engine.Config, scripts [][]relayPhase, relay bool) (*engine.Result, []string) {
	t.Helper()
	cfg.MaxRounds = 1000
	cfg.Higher = relayHigher
	cfg.SizeOf = func(m engine.Message) int { return wire.SizeBits(*m.(*wire.Message)) }
	log, hook := valueTrace()
	cfg.Trace = hook
	procs := make([]engine.Coroutine, len(scripts))
	for pid := range procs {
		procs[pid] = scriptedProc(pid, scripts[pid], relay)
	}
	res, err := engine.Run(cfg, procs)
	if err != nil {
		t.Fatalf("relay=%v: %v", relay, err)
	}
	return res, *log
}

// valueTrace records each round's sent messages by value.
func valueTrace() (*[]string, func(int, []engine.Message)) {
	log := &[]string{}
	return log, func(round int, sent []engine.Message) {
		var b strings.Builder
		fmt.Fprintf(&b, "%d:", round)
		for _, m := range sent {
			fmt.Fprintf(&b, "%v;", *m.(*wire.Message))
		}
		*log = append(*log, b.String())
	}
}

// selfLoopSchedule is a random connected schedule with a self-loop of
// multiplicity 2 on every third process and every link tripled on odd
// rounds.
func selfLoopSchedule(n int, seed int64) dynnet.Schedule {
	inner := dynnet.NewRandomConnected(n, 0.3, seed)
	return dynnet.NewFunc(n, func(t int) *dynnet.Multigraph {
		g := dynnet.NewMultigraph(n)
		mult := 1 + 2*(t%2)
		for _, l := range inner.Graph(t).CanonicalLinks() {
			g.MustAddLink(l.U, l.V, l.Mult*mult)
		}
		for pid := 0; pid < n; pid += 3 {
			g.MustAddLink(pid, pid, 2)
		}
		return g
	})
}

// TestRelayMatchesPerRoundWitness runs scripted relay phases (random
// lengths, block lengths, stop predicates — including one firing on the
// first block — and lifetimes) on Run with Relay and with the per-round
// witness, across oblivious, adaptive and faulty schedules, and requires
// identical Results and Trace streams. On the static and random
// schedules, which are pure, the relay runs must also have left out some
// settled rounds' graphs.
func TestRelayMatchesPerRoundWitness(t *testing.T) {
	const n = 8
	plan, err := faults.Parse("spike:4:20,storm:10:15:3,drop:30:0:0.3", 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// graphs counts the schedule's answers in the current run of the
	// counting cells.
	var graphs *countingSchedule
	counted := func(s dynnet.InPlaceSchedule) engine.Config {
		graphs = &countingSchedule{InPlaceSchedule: s}
		return engine.Config{Schedule: graphs}
	}
	schedules := []struct {
		name    string
		cfg     func(seed int64) engine.Config
		settles bool // counted, and some relay rounds must be skipped
	}{
		{name: "static-path", settles: true, cfg: func(int64) engine.Config {
			return counted(dynnet.NewStatic(dynnet.Path(n)))
		}},
		{name: "random", settles: true, cfg: func(seed int64) engine.Config {
			return counted(dynnet.NewRandomConnected(n, 0.3, seed))
		}},
		{name: "self-loops-multiplicities", cfg: func(seed int64) engine.Config {
			return engine.Config{Schedule: selfLoopSchedule(n, seed)}
		}},
		{name: "isolator", cfg: func(int64) engine.Config {
			return engine.Config{Adaptive: adversary.NewIsolator(n, 0)}
		}},
		{name: "faults", cfg: func(seed int64) engine.Config {
			return engine.Config{Schedule: plan.Wrap(dynnet.NewRandomConnected(n, 0.3, seed))}
		}},
	}
	for _, sc := range schedules {
		skipped := 0
		for _, block := range []int{1, 2, 3} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("%s/block=%d/seed=%d", sc.name, block, seed), func(t *testing.T) {
					scripts := make([][]relayPhase, n)
					rng := rand.New(rand.NewPCG(uint64(seed), uint64(block)))
					for pid := range scripts {
						scripts[pid] = relayScript(rng, []int{block, 1})
					}
					want, wantTrace := runScripted(t, sc.cfg(seed), scripts, false)
					if sc.settles && graphs.calls != want.Rounds {
						t.Errorf("witness: %d graphs for %d rounds", graphs.calls, want.Rounds)
					}
					got, gotTrace := runScripted(t, sc.cfg(seed), scripts, true)
					if sc.settles {
						skipped += got.Rounds - graphs.calls
					}
					if want.Rounds == 0 {
						t.Fatal("the script ran no rounds")
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("Result differs:\nwitness %+v\nrelay   %+v", want, got)
					}
					if !reflect.DeepEqual(wantTrace, gotTrace) {
						t.Errorf("Trace differs:\nwitness %v\nrelay   %v", wantTrace, gotTrace)
					}
				})
			}
		}
		if sc.settles && skipped == 0 {
			t.Errorf("%s: no relay round was settled", sc.name)
		}
	}
}
