package core

import (
	"testing"

	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

// TestCompactVHTLeaderlessEquivalence is the end-to-end compaction
// property on the deep-tree case: a leaderless run builds O(n) levels, so
// compaction must engage, shrink the resident tree by a large factor, and
// change nothing observable — same frequencies, same rounds, same levels.
func TestCompactVHTLeaderlessEquivalence(t *testing.T) {
	for _, n := range []int{16, 24} {
		inputs := make([]historytree.Input, n)
		for i := range inputs {
			inputs[i].Value = int64(i % 2)
		}
		// A static path mixes slowly, forcing a deep tree (≈ n/2 levels) —
		// the case compaction exists for.
		s := dynnet.NewStatic(dynnet.Path(n))
		cfg := Config{Mode: ModeLeaderless, DiamBound: n, MaxLevels: 3*n + 6}

		off, err := Run(s, inputs, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("n=%d baseline: %v", n, err)
		}
		cfg.CompactVHT = true
		on, err := Run(s, inputs, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("n=%d compacted: %v", n, err)
		}

		if !sameFrequencies(off.Frequencies, on.Frequencies) {
			t.Fatalf("n=%d: frequencies differ: %+v vs %+v", n, on.Frequencies, off.Frequencies)
		}
		if off.Stats.Rounds != on.Stats.Rounds || off.Stats.Levels != on.Stats.Levels {
			t.Fatalf("n=%d: run shape changed: rounds %d→%d levels %d→%d",
				n, off.Stats.Rounds, on.Stats.Rounds, off.Stats.Levels, on.Stats.Levels)
		}
		if on.Stats.CompactedLevels == 0 || on.Stats.CompactedNodes == 0 {
			t.Fatalf("n=%d: compaction never engaged (stats %+v)", n, on.Stats)
		}
		if off.Stats.CompactedLevels != 0 {
			t.Fatalf("n=%d: baseline reports compaction: %+v", n, off.Stats)
		}
		if on.Stats.ResidentNodes >= off.Stats.ResidentNodes {
			t.Fatalf("n=%d: resident nodes %d not below baseline %d",
				n, on.Stats.ResidentNodes, off.Stats.ResidentNodes)
		}
		if on.Stats.PeakResidentNodes >= off.Stats.PeakResidentNodes {
			t.Fatalf("n=%d: peak resident %d not below baseline %d",
				n, on.Stats.PeakResidentNodes, off.Stats.PeakResidentNodes)
		}
	}
}

// TestCompactVHTLeaderEquivalence: leader-mode runs on clean schedules
// (no resets) must also be byte-for-byte unaffected. The static path gives
// the deepest leader trees (≈ n levels), so compaction engages hard.
func TestCompactVHTLeaderEquivalence(t *testing.T) {
	const n = 16
	s := dynnet.NewStatic(dynnet.Path(n))
	cfg := Config{Mode: ModeLeader, MaxLevels: 3*n + 6}

	off, err := Run(s, leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg.CompactVHT = true
	on, err := Run(s, leaderInputs(n), cfg, RunOptions{})
	if err != nil {
		t.Fatalf("compacted: %v", err)
	}
	if on.N != off.N || on.Stats.Rounds != off.Stats.Rounds || on.Stats.Levels != off.Stats.Levels {
		t.Fatalf("run changed: n %d→%d rounds %d→%d levels %d→%d",
			off.N, on.N, off.Stats.Rounds, on.Stats.Rounds, off.Stats.Levels, on.Stats.Levels)
	}
	for in, c := range off.Multiset {
		if on.Multiset[in] != c {
			t.Fatalf("multiset differs at %+v: %d vs %d", in, on.Multiset[in], c)
		}
	}
	if on.Stats.CompactedLevels == 0 {
		t.Fatalf("compaction never engaged on a %d-level run: %+v", on.Stats.Levels, on.Stats)
	}
}

// TestCompactVHTPeakReduction pins the O(active view) claim at in-repo
// scale: a deep leader run on a static path (≈ n levels, late levels ≈ n
// classes wide) must cut the peak resident node count at least 2×. The
// full ≥4× number at n=48 (1224 → 281 nodes) is recorded in
// EXPERIMENTS.md; the ratio grows with n because the uncompacted total is
// Θ(n²) while the compacted working set is ≈ (compactLag+2)·n.
func TestCompactVHTPeakReduction(t *testing.T) {
	const n = 24
	inputs := leaderInputs(n)
	s := dynnet.NewStatic(dynnet.Path(n))
	cfg := Config{Mode: ModeLeader, MaxLevels: 3*n + 6}
	off, err := Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg.CompactVHT = true
	on, err := Run(s, inputs, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("compacted: %v", err)
	}
	if ratio := float64(off.Stats.PeakResidentNodes) / float64(on.Stats.PeakResidentNodes); ratio < 2 {
		t.Fatalf("peak resident reduction %.2fx (peak %d → %d), want ≥ 2x",
			ratio, off.Stats.PeakResidentNodes, on.Stats.PeakResidentNodes)
	} else {
		t.Logf("peak resident nodes: %d → %d (%.1fx)",
			off.Stats.PeakResidentNodes, on.Stats.PeakResidentNodes, ratio)
	}
}
