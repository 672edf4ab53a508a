package core

import (
	"errors"
	"strings"
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
)

// leaderInputs returns n inputs with process 0 flagged as the leader.
func leaderInputs(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	if n > 0 {
		in[0].Leader = true
	}
	return in
}

func TestCountingStaticTopologies(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		graph func(n int) *dynnet.Multigraph
	}{
		{name: "single", n: 1, graph: dynnet.Complete},
		{name: "pair", n: 2, graph: dynnet.Path},
		{name: "path4", n: 4, graph: dynnet.Path},
		{name: "path7", n: 7, graph: dynnet.Path},
		{name: "cycle6", n: 6, graph: dynnet.Cycle},
		{name: "complete5", n: 5, graph: dynnet.Complete},
		{name: "star6", n: 6, graph: func(n int) *dynnet.Multigraph { return dynnet.Star(n, 2) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := dynnet.NewStatic(tt.graph(tt.n))
			res, err := Run(s, leaderInputs(tt.n), Config{Mode: ModeLeader, MaxLevels: 3*tt.n + 5}, RunOptions{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.N != tt.n {
				t.Fatalf("counted n=%d, want %d (levels=%d rounds=%d resets=%d)",
					res.N, tt.n, res.Stats.Levels, res.Stats.Rounds, res.Stats.Resets)
			}
			if err := res.VHT.Validate(); err != nil {
				t.Errorf("VHT invalid: %v", err)
			}
			t.Logf("n=%d rounds=%d levels=%d resets=%d finalDiam=%d maxBits=%d",
				tt.n, res.Stats.Rounds, res.Stats.Levels, res.Stats.Resets,
				res.Stats.FinalDiamEstimate, res.Stats.MaxMessageBits)
		})
	}
}

func TestCountingDynamicSchedules(t *testing.T) {
	schedules := []struct {
		name string
		mk   func(n int) dynnet.Schedule
	}{
		{name: "random", mk: func(n int) dynnet.Schedule { return dynnet.NewRandomConnected(n, 0.3, 11) }},
		{name: "rotating-star", mk: func(n int) dynnet.Schedule { return dynnet.NewRotatingStar(n) }},
		{name: "shifting-path", mk: func(n int) dynnet.Schedule { return dynnet.NewShiftingPath(n) }},
		{name: "bottleneck", mk: func(n int) dynnet.Schedule { return dynnet.NewBottleneck(n) }},
	}
	for _, tt := range schedules {
		for _, n := range []int{3, 5, 7} {
			s := tt.mk(n)
			res, err := Run(s, leaderInputs(n), Config{Mode: ModeLeader, MaxLevels: 3*n + 5}, RunOptions{})
			if err != nil {
				t.Fatalf("%s n=%d: %v", tt.name, n, err)
			}
			if res.N != n {
				t.Fatalf("%s n=%d: counted %d", tt.name, n, res.N)
			}
		}
	}
}

// TestLeaderlessUnderestimatedDiameterFailsTyped is the regression for a
// nil dereference: with a diameter bound below the path's dynamic
// diameter, a process still building the input level accepted an Edge
// from a process a level ahead and applied it to a temporary VHT that
// does not exist at that level. The run must fail with a protocol error —
// no panic, no answer.
func TestLeaderlessUnderestimatedDiameterFailsTyped(t *testing.T) {
	vals := []int64{0, 1, 0, 0, 0, 1, 0, 2, 0}
	inputs := make([]historytree.Input, len(vals))
	for i, v := range vals {
		inputs[i].Value = v
	}
	res, err := Run(dynnet.NewRandomConnected(9, 0, 3), inputs,
		Config{Mode: ModeLeaderless, DiamBound: 3}, RunOptions{})
	if err == nil || res != nil {
		t.Fatalf("got result %+v, err %v; want an error and no answer", res, err)
	}
	var pe *engine.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("run panicked: %v\n%s", err, pe.Stack)
	}
	if !strings.Contains(err.Error(), "out-of-step") {
		t.Fatalf("err = %v, want the out-of-step level error", err)
	}
}
