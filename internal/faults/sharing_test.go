package faults_test

import (
	"fmt"
	"testing"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/faults"
)

// privateVHT is the execution-strategy axis of the fault-matrix tests:
// index 0 runs with cross-process shared VHTs (the default), index 1 with
// a private VHT per process (core.Config.PrivateVHT). Neither may change
// an outcome. The index is the sched=N (scheduler=N) part of the subtest
// names, which this axis has carried since it enumerated the engine's
// schedulers.
var privateVHT = []bool{false, true}

// TestMatrixFaultArithmeticEquivalence runs the in-model fault matrix over
// the execution-strategy axis: every in-model fault plan, in leader and
// leaderless mode, with shared and private VHTs, must produce the right
// answer (check.VerifyAnswer), and each private-VHT cell must execute
// exactly like its shared-VHT cell (same rounds, levels, resets). The
// name dates from when the matrix also compared two solver arithmetics.
// Runs under -race in CI.
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
						inputs := leaderIn(n)
						if leaderless {
							inputs = valueIn(n)
						}
						runWith := func(private bool) *core.RunResult {
							plan, err := faults.Parse(spec, T, 7)
							if err != nil {
								t.Fatal(err)
							}
							inner := dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3)
							cfg := core.Config{Mode: core.ModeLeader, BlockT: T, MaxLevels: 3*n + 8, PrivateVHT: private}
							if leaderless {
								cfg.Mode = core.ModeLeaderless
								cfg.DiamBound = n * T
							}
							res, err := core.Run(wrapT(t, inner, plan, T), inputs, cfg, core.RunOptions{})
							if err != nil {
								t.Fatalf("private=%v: %v", private, err)
							}
							if err := check.VerifyAnswer(inputs, res); err != nil {
								t.Fatalf("private=%v: %v", private, err)
							}
							return res
						}
						got := runWith(private)
						if !private {
							return
						}
						shared := runWith(false)
						if got.Stats.Rounds != shared.Stats.Rounds ||
							got.Stats.Levels != shared.Stats.Levels ||
							got.Stats.Resets != shared.Stats.Resets {
							t.Fatalf("executions diverge: private rounds=%d levels=%d resets=%d, shared rounds=%d levels=%d resets=%d",
								got.Stats.Rounds, got.Stats.Levels, got.Stats.Resets,
								shared.Stats.Rounds, shared.Stats.Levels, shared.Stats.Resets)
						}
					})
				}
			}
		}
	}
}
