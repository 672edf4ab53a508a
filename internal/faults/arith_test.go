package faults_test

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
)

// privateVHT is the execution-strategy axis of the fault-matrix tests:
// index 0 runs with cross-process shared VHTs (the default), index 1 with
// a private VHT per process (core.Config.PrivateVHT). Neither may change
// an outcome. The index is the sched=N (scheduler=N) part of the subtest
// names, which this axis has carried since it enumerated the engine's
// schedulers.
var privateVHT = []bool{false, true}

// TestMatrixFaultArithmeticEquivalence layers the solver's witness
// discipline over the PR 5 fault matrix: every in-model fault plan, in
// leader and leaderless mode, with shared and private VHTs, must produce
// byte-identical protocol executions (same rounds, levels, resets, answer)
// whether the counting solver runs the multi-modular backend or the
// big.Int exactness witness. The backends may differ only in the modular
// work counters — and the modular run must carry itself without ever
// falling back to the witness. Runs under -race in CI.
func TestMatrixFaultArithmeticEquivalence(t *testing.T) {
	plans := []string{
		"spike:5:30",
		"cut:3:20",
		"storm:1:0:3",
		"spike:4:16,storm:1:0:2",
	}
	n := 5
	for _, T := range []int{1, 4} {
		for _, spec := range plans {
			for v, private := range privateVHT {
				for _, leaderless := range []bool{false, true} {
					mode := "leader"
					if leaderless {
						mode = "leaderless"
					}
					t.Run(fmt.Sprintf("%s/T=%d/sched=%d/%s", mode, T, v, spec), func(t *testing.T) {
						runWith := func(a historytree.Arith) *core.RunResult {
							plan, err := faults.Parse(spec, T, 7)
							if err != nil {
								t.Fatal(err)
							}
							inner := dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)
							cfg := core.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8, Arithmetic: a, PrivateVHT: private}
							inputs := leaderIn(n)
							if leaderless {
								cfg.Mode = core.ModeLeaderless
								cfg.DiamBound = n * T
								inputs = valueIn(n)
							}
							res, err := core.Run(wrapT(t, inner, plan, T), inputs, cfg, core.RunOptions{})
							if err != nil {
								t.Fatalf("arith=%v: %v", a, err)
							}
							return res
						}
						mod := runWith(historytree.ArithModular)
						big := runWith(historytree.ArithBig)

						if mod.N != big.N {
							t.Fatalf("counts diverge: modular %d, big %d", mod.N, big.N)
						}
						if (mod.Frequencies == nil) != (big.Frequencies == nil) {
							t.Fatalf("frequency presence diverges")
						}
						if mod.Frequencies != nil {
							if mod.Frequencies.MinSize != big.Frequencies.MinSize {
								t.Fatalf("minimal sizes diverge: modular %d, big %d",
									mod.Frequencies.MinSize, big.Frequencies.MinSize)
							}
							for in, s := range big.Frequencies.Shares {
								if mod.Frequencies.Shares[in] != s {
									t.Fatalf("share of %v diverges: modular %d, big %d",
										in, mod.Frequencies.Shares[in], s)
								}
							}
						}
						if mod.Stats.Rounds != big.Stats.Rounds ||
							mod.Stats.Levels != big.Stats.Levels ||
							mod.Stats.Resets != big.Stats.Resets {
							t.Fatalf("executions diverge: modular rounds=%d levels=%d resets=%d, big rounds=%d levels=%d resets=%d",
								mod.Stats.Rounds, mod.Stats.Levels, mod.Stats.Resets,
								big.Stats.Rounds, big.Stats.Levels, big.Stats.Resets)
						}
						if mod.Stats.SolverWitnessFalls != 0 {
							t.Errorf("modular backend fell back to the witness %d times", mod.Stats.SolverWitnessFalls)
						}
						if mod.Stats.SolverPrimes < 2 {
							t.Errorf("modular backend reports %d primes, want >= 2", mod.Stats.SolverPrimes)
						}
						if big.Stats.SolverPrimes != 0 || big.Stats.SolverCRTRecons != 0 {
							t.Errorf("big backend reports modular counters: %+v", big.Stats)
						}
					})
				}
			}
		}
	}
}
