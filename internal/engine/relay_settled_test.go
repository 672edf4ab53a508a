package engine_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
)

// Settled rounds: once no published message outranks any relaying
// process's held one, a round's graph and fold can change nothing, and the
// engine leaves both out on a pure schedule. These tests pin when it may
// (and may not) do so, and that doing so changes no Result and no Trace.

func intOrder(a, b engine.Message) bool { return a.(int) > b.(int) }

// countingSchedule counts the graphs it is asked for and forwards its
// inner schedule's purity.
type countingSchedule struct {
	dynnet.InPlaceSchedule
	calls int
}

func (c *countingSchedule) Graph(t int) *dynnet.Multigraph {
	c.calls++
	return c.InPlaceSchedule.Graph(t)
}

func (c *countingSchedule) GraphInto(t int, g *dynnet.Multigraph) {
	c.calls++
	c.InPlaceSchedule.GraphInto(t, g)
}

func (c *countingSchedule) PureInT() bool { return dynnet.Pure(c.InPlaceSchedule) }

// TestRelayAsksImpureScheduleEveryRound pins the purity gate: a
// FuncSchedule may keep state, so even a relay whose rounds are all
// settled (every process holds the same value from the start) asks it for
// every round's graph, while the same run on a pure schedule asks for
// none.
func TestRelayAsksImpureScheduleEveryRound(t *testing.T) {
	const n, rounds = 6, 40
	procs := make([]engine.Coroutine, n)
	for pid := range procs {
		procs[pid] = engine.CoroutineFunc(func(tr *engine.Transport) (any, error) {
			return tr.Relay(3, rounds, 1, nil)
		})
	}
	calls := 0
	impure := dynnet.NewFunc(n, func(int) *dynnet.Multigraph {
		calls++
		return dynnet.Path(n)
	})
	res, err := engine.Run(engine.Config{Schedule: impure, MaxRounds: 2 * rounds, Higher: intOrder}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds || calls != rounds {
		t.Errorf("FuncSchedule: %d graphs for %d rounds, want %d for %d", calls, res.Rounds, rounds, rounds)
	}
	pure := &countingSchedule{InPlaceSchedule: dynnet.NewStatic(dynnet.Path(n))}
	res, err = engine.Run(engine.Config{Schedule: pure, MaxRounds: 2 * rounds, Higher: intOrder}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds || pure.calls != 0 {
		t.Errorf("pure schedule: %d graphs for %d rounds, want 0 for %d", pure.calls, res.Rounds, rounds)
	}
}

// TestRelaySettledBlockRaise covers a held message that rises above every
// published one in the middle of a block. On the static path 0–1–2,
// process 1 relays 1 in blocks of 2 and adopts process 0's one-round 9
// in round 1; process 0 then relays 1 too. In round 2 every process
// publishes 1, but process 1 holds 9 and publishes it at the block end,
// so rounds 2 and 3 are not settled and 9 must reach both ends.
func TestRelaySettledBlockRaise(t *testing.T) {
	relay := func(blocks, block int) engine.Coroutine {
		return engine.CoroutineFunc(func(tr *engine.Transport) (any, error) {
			return tr.Relay(1, blocks, block, nil)
		})
	}
	procs := []engine.Coroutine{
		engine.CoroutineFunc(func(tr *engine.Transport) (any, error) {
			if _, err := tr.SendAndReceive(9); err != nil {
				return nil, err
			}
			return tr.Relay(1, 3, 1, nil)
		}),
		relay(2, 2),
		relay(2, 2),
	}
	sched := &countingSchedule{InPlaceSchedule: dynnet.NewStatic(dynnet.Path(3))}
	var trace []string
	res, err := engine.Run(engine.Config{Schedule: sched, MaxRounds: 10, Higher: intOrder,
		Trace: func(round int, sent []engine.Message) { trace = append(trace, fmt.Sprint(round, sent)) }}, procs)
	if err != nil {
		t.Fatal(err)
	}
	for pid := range procs {
		if res.Outputs[pid] != 9 {
			t.Errorf("process %d ends on %v, want 9 (outputs %v)", pid, res.Outputs[pid], res.Outputs)
		}
	}
	want := []string{"1 [9 1 1]", "2 [1 1 1]", "3 [1 9 1]", "4 [9 9 1]"}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("trace %q, want %q", trace, want)
	}
	// Round 4 is settled: everyone holds 9 after round 3.
	if res.Rounds != 4 || sched.calls != 3 {
		t.Errorf("%d graphs for %d rounds, want 3 for 4", sched.calls, res.Rounds)
	}
}

// FuzzRelaySettled drives random scripted relays — blocks of 1 to 3
// rounds, tying Begins, stop predicates, processes returning while others
// still relay — over a pure static or random schedule, and requires Relay,
// settled rounds left out, to match the per-round witness: equal Result
// and Trace.
func FuzzRelaySettled(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(9), uint8(1), uint8(2))
	f.Add(uint64(3), uint8(3), uint8(2), uint8(1))
	f.Add(uint64(4), uint8(12), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, size, topology, maxBlock uint8) {
		n := 2 + int(size%11)
		var sched dynnet.Schedule
		switch topology % 4 {
		case 0:
			sched = dynnet.NewStatic(dynnet.Path(n))
		case 1:
			sched = dynnet.NewStatic(dynnet.Cycle(n))
		case 2:
			sched = dynnet.NewStatic(dynnet.Complete(n))
		default:
			sched = dynnet.NewRandomConnected(n, 0.3, int64(seed))
		}
		blockLens := []int{1, 2, 3}[:1+int(maxBlock%3)]
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		scripts := make([][]relayPhase, n)
		for pid := range scripts {
			scripts[pid] = relayScript(rng, blockLens)
		}
		want, wantTrace := runScripted(t, engine.Config{Schedule: sched}, scripts, false)
		got, gotTrace := runScripted(t, engine.Config{Schedule: sched}, scripts, true)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Result differs:\nwitness %+v\nrelay   %+v", want, got)
		}
		if !reflect.DeepEqual(wantTrace, gotTrace) {
			t.Errorf("Trace differs:\nwitness %v\nrelay   %v", wantTrace, gotTrace)
		}
	})
}
