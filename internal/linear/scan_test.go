package linear

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
)

// TestDecideScanMatchesWitness checks the decision scan's solver on the
// views the protocol really decides on. A process decides right after
// placing its new class, and its next send carries exactly that view, so
// every message sent at the start of a block (plus each Outcome's tree)
// is a decide-point view. For each one, a single incremental Solver scans
// c = 0..chainComplete(tree, depth) in order, as decide does (without
// stopping early, and past the leaderless ⌈D/T⌉ lag, so every candidate
// decide could reach is covered), and at every c it must agree with the
// from-scratch witness historytree.Count / Frequencies: the same
// error-or-not, the same Known, and the same answer.
func TestDecideScanMatchesWitness(t *testing.T) {
	const n = 8
	modes := map[string]core.Mode{"leader": core.ModeLeader, "leaderless": core.ModeLeaderless}
	for modeName, mode := range modes {
		for _, T := range []int{1, 2} {
			for _, spec := range []string{"fault-free", "spike:4:16,storm:1:0:2"} {
				t.Run(fmt.Sprintf("%s/T=%d/%s", modeName, T, spec), func(t *testing.T) {
					s := dynnet.Schedule(dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3))
					if T > 1 {
						uc, err := dynnet.NewUnionConnected(s, T)
						if err != nil {
							t.Fatal(err)
						}
						s = uc
					}
					if spec != "fault-free" {
						plan, err := faults.Parse(spec, T, 7)
						if err != nil {
							t.Fatal(err)
						}
						s = plan.Wrap(s)
					}
					inputs := make([]historytree.Input, n)
					cfg := Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
					if mode == core.ModeLeader {
						inputs[0].Leader = true
					} else {
						for i := range inputs {
							inputs[i].Value = int64(i % 3)
						}
						cfg.DiamBound = n * T
					}
					itn := newInterner()
					p := &process{itn: itn, cfg: cfg}
					views, known := 0, 0
					check := func(tree *historytree.Tree, depth int) {
						views++
						known += scanAgainstWitness(t, tree, depth, mode)
					}
					opts := core.RunOptions{Trace: func(round int, sent []engine.Message) {
						if round == 1 || (round-1)%T != 0 {
							return
						}
						depth := (round - 1) / T
						for _, raw := range sent {
							m, ok := raw.(*viewMsg)
							if !ok {
								continue
							}
							tree, err := p.materialize(m.levels)
							if err != nil {
								t.Fatal(err)
							}
							check(tree, depth)
						}
					}}
					res, err := run(itn, s, inputs, cfg, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, oc := range res.Outputs {
						check(oc.VHT, oc.Levels)
					}
					if known == 0 {
						t.Fatalf("no resolved answer in %d views", views)
					}
					t.Logf("%d decide-point views, %d resolved candidates", views, known)
				})
			}
		}
	}
}

// scanAgainstWitness scans one view's candidates through one Solver and
// compares every candidate with the from-scratch witness. It returns the
// number of candidates that resolved.
func scanAgainstWitness(t *testing.T, tree *historytree.Tree, depth int, mode core.Mode) int {
	t.Helper()
	limit := chainComplete(tree, depth)
	solver := historytree.NewSolver()
	known := 0
	for c := 0; c <= limit; c++ {
		if mode == core.ModeLeader {
			got, gerr := solver.CountAt(tree, c)
			want, werr := historytree.Count(tree, c)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("depth %d, c=%d: solver error %v, witness error %v", depth, c, gerr, werr)
			}
			if got.Known != want.Known || got.N != want.N || len(got.Multiset) != len(want.Multiset) {
				t.Fatalf("depth %d, c=%d: solver %+v, witness %+v", depth, c, got, want)
			}
			for in, k := range want.Multiset {
				if got.Multiset[in] != k {
					t.Fatalf("depth %d, c=%d: multiset[%v] solver %d, witness %d", depth, c, in, got.Multiset[in], k)
				}
			}
			if got.Known {
				known++
			}
			continue
		}
		got, gerr := solver.FrequenciesAt(tree, c)
		want, werr := historytree.Frequencies(tree, c)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("depth %d, c=%d: solver error %v, witness error %v", depth, c, gerr, werr)
		}
		if got.Known != want.Known || !sameFrequencies(&got, &want) {
			t.Fatalf("depth %d, c=%d: solver %+v, witness %+v", depth, c, got, want)
		}
		if got.Known {
			known++
		}
	}
	// chainComplete keeps every scanned prefix liftable, so the Solver
	// answers each candidate itself instead of delegating to the witness.
	if fb := solver.Stats().Fallbacks; fb != 0 {
		t.Fatalf("depth %d: %d structural fallbacks", depth, fb)
	}
	return known
}
