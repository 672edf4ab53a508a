package linear_test

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// TestQuickLeaderlessProtocolAgreement is the property-based arm of the
// differential suite: over random (n, density, seed, value-assignment)
// draws, the leaderless frequency vector must be identical between the
// congested and linear protocols — two runs per draw, both verified
// against ground truth and against each other. testing/quick drives the
// draws from a seeded source so failures replay.
func TestQuickLeaderlessProtocolAgreement(t *testing.T) {
	property := func(nSel, pSel uint8, seed int64, valSel uint16) bool {
		n := 2 + int(nSel)%6          // n ∈ [2, 7]
		p := 0.3 + float64(pSel%8)/16 // density ∈ [0.3, 0.74]
		inputs := make([]historytree.Input, n)
		for i := range inputs {
			// Up to three distinct values, bit-picked from valSel.
			inputs[i].Value = int64((valSel >> (2 * (i % 8))) % 3)
		}

		var want *historytree.FrequencyResult
		for _, protocol := range []string{"congested", "linear"} {
			sched := dynnet.NewRandomConnected(n, p, seed)
			var res *core.RunResult
			var err error
			if protocol == "linear" {
				cfg := linear.Config{Mode: core.ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 8}
				res, err = linear.Run(sched, inputs, cfg, core.RunOptions{})
			} else {
				cfg := core.Config{Mode: core.ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 8}
				res, err = core.Run(sched, inputs, cfg, core.RunOptions{})
			}
			if err != nil {
				t.Logf("n=%d p=%.2f seed=%d %s: %v", n, p, seed, protocol, err)
				return false
			}
			if verr := check.VerifyAnswer(inputs, res); verr != nil {
				t.Logf("n=%d p=%.2f seed=%d %s: %v", n, p, seed, protocol, verr)
				return false
			}
			if want == nil {
				want = res.Frequencies
				continue
			}
			if !sameShares(want, res.Frequencies) {
				t.Logf("n=%d p=%.2f seed=%d %s: %+v, first run said %+v",
					n, p, seed, protocol, res.Frequencies, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(202310)), // seeded: failures replay
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLeaderProtocolAgreement is the leader-mode counterpart: the
// count and input multiset must agree across protocols on random
// generalized-counting instances, and match ground truth.
func TestQuickLeaderProtocolAgreement(t *testing.T) {
	property := func(nSel, pSel uint8, seed int64, valSel uint16) bool {
		n := 1 + int(nSel)%7
		p := 0.3 + float64(pSel%8)/16
		inputs := make([]historytree.Input, n)
		inputs[0].Leader = true
		for i := 1; i < n; i++ {
			inputs[i].Value = int64((valSel >> (2 * (i % 8))) % 3)
		}

		var want *core.RunResult
		for _, protocol := range []string{"congested", "linear"} {
			sched := dynnet.NewRandomConnected(n, p, seed)
			var res *core.RunResult
			var err error
			if protocol == "linear" {
				cfg := linear.Config{Mode: core.ModeLeader, MaxLevels: 3*n + 8}
				res, err = linear.Run(sched, inputs, cfg, core.RunOptions{})
			} else {
				cfg := core.Config{Mode: core.ModeLeader, BuildInputLevel: true, MaxLevels: 3*n + 8}
				res, err = core.Run(sched, inputs, cfg, core.RunOptions{})
			}
			if err != nil {
				t.Logf("n=%d p=%.2f seed=%d %s: %v", n, p, seed, protocol, err)
				return false
			}
			if verr := check.VerifyAnswer(inputs, res); verr != nil {
				t.Logf("n=%d p=%.2f seed=%d %s: %v", n, p, seed, protocol, verr)
				return false
			}
			if want == nil {
				want = res
				continue
			}
			if res.N != want.N || !maps.Equal(res.Multiset, want.Multiset) {
				t.Logf("n=%d p=%.2f seed=%d %s: n=%d %v, congested said n=%d %v",
					n, p, seed, protocol, res.N, res.Multiset, want.N, want.Multiset)
				return false
			}
		}
		return want.N == n
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(202311)),
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}
