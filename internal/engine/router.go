package engine

import (
	"fmt"

	"anondyn/internal/dynnet"
)

// router computes one round's deliveries: congestion accounting, schedule
// lookup, degree pre-sizing and the parity-double-buffered inbox carve-out
// for processes in SendAndReceive, and the priority fold for processes in
// Relay. A steady-state round performs at most one allocation (growing a
// delivery backing array); an all-relay round performs none. A settled
// round — every sender relaying, a pure schedule, and no published message
// above any held one — is only accounted and traced: its graph and fold
// could change nothing, so the router asks the schedule for no graph.
//
// The per-pid state slice uses the runner's convention: a process sends in
// the round iff its state is stateWaiting or stateRelaying, and
// pending[pid] holds its submitted (for a relay, its published) message.
// stateWaiting processes receive an inbox; stateRelaying ones fold their
// deliveries into held[pid].
type router struct {
	cfg *Config
	n   int

	// round counts delivered rounds; route increments it first, so the
	// value passed to Adaptive.Graph, Trace, and BitLimitError is the
	// 1-based round being delivered.
	round int

	// Round-delivery scratch, reused across rounds to keep the hot loop
	// allocation-free: headers and degree counts are per-pid, sent /
	// sentByPID hold the round's submissions, and the delivery backing
	// arrays are double-buffered (even/odd rounds) so a process may keep
	// reading its previous round's inbox slice until its next
	// SendAndReceive, per the documented validity window.
	outHeads  [][]Message
	degree    []int
	pos       []int
	sent      []Message
	sentByPID []Message
	backings  [2][]Message

	// inPlace is the schedule's optional allocation-free generator; gbuf is
	// the single reused graph it fills. route only reads the graph inside
	// the call, so one buffer (no parity pair) suffices.
	inPlace dynnet.InPlaceSchedule
	gbuf    *dynnet.Multigraph

	// bits caches SizeOf(pending[pid]), -1 when unknown. The runner resets
	// an entry wherever pending[pid] changes (a submission, a relay start,
	// the publication of a raised message), so a relayed message is
	// measured once per publication rather than once per round. raised
	// marks relaying processes whose held message rose since they last
	// published it.
	bits   []int
	raised []bool

	// The settled-round summary. pure: the schedule's graphs are a
	// function of the round alone, so a graph left out changes no other
	// round (never true for an adaptive adversary, which must see every
	// round's messages). top is the highest held message among relaying
	// processes, low marks those holding one under it and below counts
	// them. A relaying process publishes a message it held, and what it
	// holds only rises, so no published message outranks top: a process
	// off low can adopt nothing, and a round with below == 0 is settled.
	// In a round without SendAndReceive senders the fold raises held
	// messages only to published ones, so top stays put and the fold just
	// takes the processes reaching its rank off low. Anything else that
	// changes the senders happens in a resume, and a resume marks the
	// summary stale until the next all-relay round rebuilds it.
	pure  bool
	stale bool
	top   Message
	low   []bool
	below int
}

// newRouter returns a router for n processes. The Config must outlive it.
func newRouter(cfg *Config, n int) *router {
	rt := &router{
		cfg:       cfg,
		n:         n,
		outHeads:  make([][]Message, n),
		degree:    make([]int, n),
		pos:       make([]int, n),
		sent:      make([]Message, 0, n),
		sentByPID: make([]Message, n),
		bits:      make([]int, n),
		raised:    make([]bool, n),
		low:       make([]bool, n),
		stale:     true,
	}
	if cfg.Adaptive == nil {
		if ips, ok := cfg.Schedule.(dynnet.InPlaceSchedule); ok {
			rt.inPlace = ips
			rt.gbuf = dynnet.NewMultigraph(n)
		}
		rt.pure = cfg.Higher != nil && dynnet.Pure(cfg.Schedule)
	}
	for pid := range rt.bits {
		rt.bits[pid] = -1
	}
	return rt
}

// route completes one round: it accounts message sizes, routes the pending
// messages of every sending process along the round's multigraph, and
// invokes the Trace hook. The returned per-pid inbox slices of
// stateWaiting processes are carved out of the round-parity backing array
// and stay valid until the same parity's next route call; stateRelaying
// processes get no inbox, their deliveries are folded into held instead.
// A settled round skips the graph and the fold (see router).
func (rt *router) route(state []procState, pending, held []Message, res *Result) ([][]Message, error) {
	rt.round++

	sent := rt.sent[:0]
	// sentByPID only feeds the adaptive adversary; skip maintaining it
	// otherwise.
	adaptive := rt.cfg.Adaptive != nil
	sentByPID := rt.sentByPID
	if adaptive {
		for pid := range sentByPID {
			sentByPID[pid] = nil
		}
	}
	waiting, relaying := 0, 0
	for pid, s := range state {
		switch s {
		case stateWaiting:
			waiting++
		case stateRelaying:
			relaying++
		default:
			continue
		}
		msg := pending[pid]
		sent = append(sent, msg)
		if adaptive {
			sentByPID[pid] = msg
		}
		res.TotalMessages++
		if rt.cfg.SizeOf != nil {
			bits := rt.bits[pid]
			if bits < 0 {
				bits = rt.cfg.SizeOf(msg)
				rt.bits[pid] = bits
			}
			res.TotalBits += int64(bits)
			if bits > res.MaxMessageBits {
				res.MaxMessageBits = bits
			}
			if rt.cfg.BitLimit > 0 && bits > rt.cfg.BitLimit {
				return nil, &BitLimitError{Round: rt.round, Process: pid, Bits: bits, Limit: rt.cfg.BitLimit}
			}
		}
	}

	// Only an all-relay round of a pure schedule keeps the summary: a
	// waiting process's message may outrank top, and it is resumed (and so
	// marks the summary stale) right after the round.
	track := waiting == 0 && rt.pure
	if track {
		if rt.stale {
			rt.summarize(state, held)
		}
		if rt.below == 0 {
			if rt.cfg.Trace != nil {
				rt.cfg.Trace(rt.round, sent)
			}
			return nil, nil
		}
	}

	var g *dynnet.Multigraph
	switch {
	case rt.cfg.Adaptive != nil:
		g = rt.cfg.Adaptive.Graph(rt.round, sentByPID)
	case rt.inPlace != nil:
		rt.inPlace.GraphInto(rt.round, rt.gbuf)
		g = rt.gbuf
	default:
		g = rt.cfg.Schedule.Graph(rt.round)
	}
	if g.N() != rt.n {
		return nil, fmt.Errorf("engine: schedule produced graph on %d processes at round %d, want %d",
			g.N(), rt.round, rt.n)
	}

	links := g.CanonicalLinks()
	var out [][]Message
	if waiting > 0 {
		out = rt.carve(links, state, pending)
	}
	if relaying > 0 {
		rt.fold(links, state, pending, held, track)
	}

	if rt.cfg.Trace != nil {
		rt.cfg.Trace(rt.round, sent)
	}
	return out, nil
}

// carve delivers the round to the stateWaiting processes. It pre-sizes
// every inbox by the process's degree in the round's multigraph (counting
// multiplicities), then carves all inboxes out of one backing array. The
// backing arrays alternate by round parity: a process may legitimately
// keep reading its previous round's inbox slice until its next
// SendAndReceive (see the Transport contract), so the buffer written this
// round must not be the one delivered last round. A link delivers only
// between two sending processes; a relaying endpoint receives through its
// fold instead.
func (rt *router) carve(links []dynnet.Link, state []procState, pending []Message) [][]Message {
	out := rt.outHeads
	deg := rt.degree
	for pid := range deg {
		deg[pid] = 0
	}
	total := 0
	for _, l := range links {
		su, sv := state[l.U], state[l.V]
		if l.U != l.V && (!su.sends() || !sv.sends()) {
			continue
		}
		if su == stateWaiting {
			deg[l.U] += l.Mult
			total += l.Mult
		}
		if sv == stateWaiting && l.U != l.V {
			deg[l.V] += l.Mult
			total += l.Mult
		}
	}
	backing := rt.backings[rt.round&1]
	if cap(backing) < total {
		backing = make([]Message, total)
		rt.backings[rt.round&1] = backing
	}
	backing = backing[:total]
	// pos tracks each inbox's write cursor into the shared backing. Writing
	// through an int cursor instead of append keeps the delivery loop free
	// of slice-header loads and stores; every inbox fills to exactly
	// deg[pid] because the delivery conditions below mirror the degree
	// pass above.
	pos := rt.pos
	off := 0
	for pid := range out {
		if deg[pid] == 0 {
			out[pid] = nil
			pos[pid] = off
			continue
		}
		out[pid] = backing[off : off+deg[pid] : off+deg[pid]]
		pos[pid] = off
		off += deg[pid]
	}

	for _, l := range links {
		su, sv := state[l.U], state[l.V]
		if l.U != l.V && (!su.sends() || !sv.sends()) {
			continue
		}
		if su == stateWaiting {
			pu, mv := pos[l.U], pending[l.V]
			for k := 0; k < l.Mult; k++ {
				backing[pu] = mv
				pu++
			}
			pos[l.U] = pu
		}
		if sv == stateWaiting && l.U != l.V {
			pv, mu := pos[l.V], pending[l.U]
			for k := 0; k < l.Mult; k++ {
				backing[pv] = mu
				pv++
			}
			pos[l.V] = pv
		}
	}
	return out
}

// summarize recomputes top, low and below from the relaying processes'
// held messages.
func (rt *router) summarize(state []procState, held []Message) {
	higher := rt.cfg.Higher
	rt.top, rt.below = nil, 0
	first := true
	for pid, s := range state {
		if s != stateRelaying {
			continue
		}
		if first || higher(held[pid], rt.top) {
			rt.top, first = held[pid], false
		}
	}
	for pid, s := range state {
		rt.low[pid] = s == stateRelaying && higher(rt.top, held[pid])
		if rt.low[pid] {
			rt.below++
		}
	}
	rt.stale = false
}

// fold delivers the round to the stateRelaying processes: one sweep over
// the links in canonical order replaces held[pid] with each delivery that
// strictly outranks it. A process sees its deliveries in the same order as
// its inbox would list them, and a strict maximum ignores repeats, so the
// result is the per-round loop's "keep the highest of what I hold and what
// I received" — multiplicities and all. Every process reads its
// neighbours' pending (published) messages, which no fold writes.
//
// With track set, only processes on low can adopt, so the sweep asks
// Higher for no other, and an adoption that reaches top's rank takes its
// process off low. A process adopts only while it holds less than the
// delivery, and no delivery outranks top, so each process leaves low at
// most once; once below is zero, the rest of the sweep can adopt nothing
// and is skipped.
func (rt *router) fold(links []dynnet.Link, state []procState, pending, held []Message, track bool) {
	higher := rt.cfg.Higher
	// Untracked, low stays nil: every relaying process may adopt.
	var low []bool
	if track {
		low = rt.low
	}
	// adopt raises pid's held message to m and reports whether every
	// relaying process now holds top's rank.
	adopt := func(pid int, m Message) bool {
		held[pid] = m
		rt.raised[pid] = true
		if low != nil && !higher(rt.top, m) {
			low[pid] = false
			rt.below--
			return rt.below == 0
		}
		return false
	}
	for _, l := range links {
		u, v := l.U, l.V
		su, sv := state[u], state[v]
		// A self-loop delivers the process its own published message, which
		// never outranks what it holds: held starts a block equal to it
		// and only rises.
		if u == v || !su.sends() || !sv.sends() {
			continue
		}
		if su == stateRelaying && (low == nil || low[u]) && higher(pending[v], held[u]) && adopt(u, pending[v]) {
			return
		}
		if sv == stateRelaying && (low == nil || low[v]) && higher(pending[u], held[v]) && adopt(v, pending[u]) {
			return
		}
	}
}
