package core_test

import (
	"reflect"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
)

// graphCounter counts the graphs a schedule is asked for. With pure set
// it promises purity (the engine may then leave out settled rounds'
// graphs); without, it hides it.
type graphCounter struct {
	dynnet.InPlaceSchedule
	pure  bool
	calls int
}

func (c *graphCounter) Graph(t int) *dynnet.Multigraph {
	c.calls++
	return c.InPlaceSchedule.Graph(t)
}

func (c *graphCounter) GraphInto(t int, g *dynnet.Multigraph) {
	c.calls++
	c.InPlaceSchedule.GraphInto(t, g)
}

func (c *graphCounter) PureInT() bool { return c.pure }

// TestRelaySettledCoreRun runs the counting protocol on a static path of
// 12 through a pure and a non-pure schedule wrapper. The pure run must
// leave out some graphs — settled broadcast rounds — and still produce the
// same answer, statistics and Trace stream as the run that asks for every
// round's graph.
func TestRelaySettledCoreRun(t *testing.T) {
	run := func(pure bool) (*core.RunResult, uint64, int) {
		sched := &graphCounter{InPlaceSchedule: dynnet.NewStatic(dynnet.Path(12)), pure: pure}
		h, hook := traceHash()
		res, err := core.Run(sched, goldenLeaderInputs(12), core.Config{Mode: core.ModeLeader},
			core.RunOptions{Trace: hook})
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.WallClock, res.Stats.SolverTime = 0, 0
		return res, h.Sum64(), sched.calls
	}
	want, wantHash, every := run(false)
	got, gotHash, calls := run(true)
	if every != want.Stats.Rounds {
		t.Errorf("non-pure schedule: %d graphs for %d rounds", every, want.Stats.Rounds)
	}
	if calls >= got.Stats.Rounds {
		t.Errorf("pure schedule: %d graphs for %d rounds, want fewer", calls, got.Stats.Rounds)
	}
	if got.N != want.N || !reflect.DeepEqual(got.Multiset, want.Multiset) || got.Stats != want.Stats {
		t.Errorf("pure run: n=%d %v %+v\nnon-pure: n=%d %v %+v",
			got.N, got.Multiset, got.Stats, want.N, want.Multiset, want.Stats)
	}
	if gotHash != wantHash {
		t.Errorf("trace hash %#x, want %#x", gotHash, wantHash)
	}
	t.Logf("%d of %d rounds asked for a graph", calls, got.Stats.Rounds)
}
