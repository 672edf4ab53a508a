package core

import (
	"fmt"

	"anondyn/internal/engine"
	"anondyn/internal/wire"
)

// transport is the communication surface the protocol needs. It is
// satisfied by *engine.Transport and wrapped by blockTransport for the
// T-union-connected extension.
type transport interface {
	SendAndReceive(m engine.Message) ([]engine.Message, error)
	Relay(m engine.Message, blocks, block int, stop func(engine.Message) bool) (engine.Message, error)
	Round() int
	PID() int
}

var _ transport = (*engine.Transport)(nil)

// blockTransport implements the Section 5 block simulation for
// T-union-connected networks: each virtual round spans T real rounds during
// which the process re-sends the same message and accumulates everything it
// receives, then treats the union as a single delivery. Running the
// unmodified protocol on top is equivalent to running it on the dynamic
// network 𝒢* = (G*₁, G*₍T+1₎, …), which is connected.
type blockTransport struct {
	inner transport
	t     int

	// acc is the union buffer, reused across virtual rounds: a returned
	// slice is only read until the next SendAndReceive (the engine's
	// validity-window contract), so the next virtual round may overwrite
	// it. It converges to the block's accumulated degree after the first
	// virtual round, making the steady state allocation-free.
	acc []engine.Message
}

var _ transport = (*blockTransport)(nil)

func (b *blockTransport) SendAndReceive(m engine.Message) ([]engine.Message, error) {
	acc := b.acc[:0]
	for i := 0; i < b.t; i++ {
		msgs, err := b.inner.SendAndReceive(m)
		if err != nil {
			return nil, err
		}
		acc = append(acc, msgs...)
	}
	b.acc = acc
	return acc, nil
}

// Relay runs the relay on virtual rounds: each block spans T times as many
// real rounds, and the held message is published only at the end of one.
func (b *blockTransport) Relay(m engine.Message, blocks, block int, stop func(engine.Message) bool) (engine.Message, error) {
	return b.inner.Relay(m, blocks, block*b.t, stop)
}

// Round returns the number of completed virtual rounds.
func (b *blockTransport) Round() int { return b.inner.Round() / b.t }

// PID forwards the engine process index (instrumentation only).
func (b *blockTransport) PID() int { return b.inner.PID() }

// nullValue / boxedNull are the Null message and its pre-boxed interface
// value: every non-leader acknowledgment phase sends Null, so the box is
// shared simulation-wide instead of re-allocated.
//
// Boxes are pointers. *wire.Message is a direct-interface type, so asserting
// a delivery costs a pointer load instead of the 48-byte struct copy that a
// value box would force, and two deliveries of the same box compare equal by
// a single pointer comparison. The pointee is never mutated after the box is
// published (boxFor copies the value in before handing the box out), so a
// relay can hand the box it ends on straight to the next phase: one
// origination travels the network as a single shared box.
var (
	nullValue = wire.Null()
	boxedNull = &nullValue
)

// sendAndReceive broadcasts a protocol message for one round and converts
// the received engine messages back to wire messages.
func (p *Process) sendAndReceive(m wire.Message) ([]wire.Message, error) {
	raw, err := p.tr.SendAndReceive(p.boxFor(m))
	if err != nil {
		return nil, err
	}
	// The converted slice is scratch reused across rounds: no caller
	// retains it past its next sendAndReceive (mirroring the engine's
	// inbox validity window), so the per-round allocation would be waste.
	// rxBuf gets sorted in place by callers; raw is never mutated.
	if cap(p.rxBuf) < len(raw) {
		p.rxBuf = make([]wire.Message, len(raw))
	}
	out := p.rxBuf[:len(raw)]
	for i, r := range raw {
		wm, ok := wire.FromBox(r)
		if !ok {
			return nil, fmt.Errorf("core: received non-protocol message %T", r)
		}
		out[i] = wm
	}
	return out, nil
}

// relay runs steps BroadcastSteps (Listing 3 lines 20–26) from the boxed
// message mp as one engine relay: each (virtual) round the process sends
// the message it holds and keeps the highest-priority one among it and
// everything received, under higherBoxed. It ends early after a step
// whose result satisfies stop, and returns the box it holds at the end
// (mp itself when steps < 1).
func (p *Process) relay(mp *wire.Message, steps int, stop func(engine.Message) bool) (*wire.Message, error) {
	top, err := p.tr.Relay(mp, steps, 1, stop)
	if err != nil {
		return mp, err
	}
	// higherBoxed only ever adopts a *wire.Message, so the relay ends on
	// mp or on one of those.
	return top.(*wire.Message), nil
}

// higherBoxed is Higher on engine messages, the engine's relay order (see
// engine.Config.Higher). Every message of a run is a box minted by boxFor,
// and boxes are immutable, so one box never outranks itself and the shared
// box of a relayed wave settles on a pointer comparison.
func higherBoxed(a, b engine.Message) bool {
	pa, okA := a.(*wire.Message)
	pb, okB := b.(*wire.Message)
	return okA && okB && pa != pb && Higher(*pa, *pb)
}

// Relay stop predicates. Halt outranks everything, so a relay that holds
// one has nothing left to learn and hands over to haltForward; an error
// phase also ends once a Reset has reached it.
func isHalt(m engine.Message) bool {
	pm, ok := m.(*wire.Message)
	return ok && pm.Label == wire.LabelHalt
}

func isResetOrHalt(m engine.Message) bool {
	pm, ok := m.(*wire.Message)
	return ok && (pm.Label == wire.LabelReset || pm.Label == wire.LabelHalt)
}

// boxFor returns an immutable heap box holding m, preferring an existing
// box over a fresh allocation: the shared Null box, or a recently created
// box (txCache — a process re-proposes the same Edge/Done at the start of
// every broadcast phase until it is accepted, so its own origination
// repeats many times).
func (p *Process) boxFor(m wire.Message) *wire.Message {
	if wire.Equal(m, nullValue) {
		return boxedNull
	}
	for i := range p.txCache {
		if p.txCache[i].box != nil && wire.Equal(p.txCache[i].m, m) {
			return p.txCache[i].box
		}
	}
	pm := new(wire.Message)
	*pm = m
	p.txCache[p.txCacheNext] = txBox{m: m, box: pm}
	p.txCacheNext = (p.txCacheNext + 1) % len(p.txCache)
	return pm
}

// SizeOf measures protocol messages for the engine's congestion accounting.
func SizeOf(m engine.Message) int {
	wm, ok := wire.FromBox(m)
	if !ok {
		return 0
	}
	return wire.SizeBits(wm)
}

// newSizeMemo returns a SizeOf that memoizes wire.SizeBits per unique
// message value. Priority broadcast re-publishes the same few messages for
// up to Θ(n²) consecutive rounds; the engine measures a sender's message
// once per publication, and wire.Message is comparable, which makes a map
// keyed by value an exact cache across senders and rounds. Each run gets
// its own memo (runners invoke SizeOf from a single goroutine, so no
// locking).
func newSizeMemo() func(engine.Message) int {
	memo := make(map[wire.Message]int)
	return func(m engine.Message) int {
		wm, ok := wire.FromBox(m)
		if !ok {
			return 0
		}
		bits, ok := memo[wm]
		if !ok {
			bits = wire.SizeBits(wm)
			memo[wm] = bits
		}
		return bits
	}
}
