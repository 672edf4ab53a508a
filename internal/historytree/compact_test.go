package historytree

import (
	"strings"
	"testing"

	"anondyn/internal/dynnet"
)

// TestCompactedSolverMatchesControl is the compaction equivalence property:
// a solver over a tree that is rolling-compacted behind its consumption
// frontier must return exactly the answers of a solver over an untouched
// copy of the same execution — at every level.
func TestCompactedSolverMatchesControl(t *testing.T) {
	const lag = 3
	for n := 4; n <= 12; n += 4 {
		for seed := int64(0); seed < 2; seed++ {
			s := dynnet.NewRandomConnected(n, 0.4, seed+1)
			rounds := 3*n + 2
			run := buildTree(t, s, leaderInputs(n), rounds)
			control := buildTree(t, s, leaderInputs(n), rounds)

			solver, ref := NewSolver(), NewSolver()
			for l := 0; l <= rounds; l++ {
				want, err := ref.CountAt(control.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: control CountAt: %v", n, seed, l, err)
				}
				got, err := solver.CountAt(run.Tree, l)
				if err != nil {
					t.Fatalf("n=%d seed=%d level=%d: compacted CountAt: %v", n, seed, l, err)
				}
				if !sameCount(want, got) {
					t.Fatalf("n=%d seed=%d level=%d: compacted %+v != control %+v",
						n, seed, l, got, want)
				}
				// Roll compaction a fixed lag behind the solver frontier,
				// exactly as core.Process does.
				if keep := min(l-lag, solver.ConsumedLevel()); keep > 1 {
					run.Tree.CompactLevels(keep)
				}
			}
			if run.Tree.CompactedLevels() == 0 {
				t.Fatalf("n=%d seed=%d: compaction never engaged", n, seed)
			}
			if run.Tree.NumNodes() >= control.Tree.NumNodes() {
				t.Fatalf("n=%d seed=%d: compacted tree holds %d nodes, control %d",
					n, seed, run.Tree.NumNodes(), control.Tree.NumNodes())
			}
			if run.Tree.CompactedNodes() == 0 {
				t.Fatalf("n=%d seed=%d: CompactedNodes=0 after compaction", n, seed)
			}
			if run.Tree.PeakResidentNodes() != control.Tree.PeakResidentNodes() {
				t.Fatalf("n=%d seed=%d: peak %d != control peak %d (peak must track growth, not releases)",
					n, seed, run.Tree.PeakResidentNodes(), control.Tree.PeakResidentNodes())
			}
		}
	}
}

// TestCompactedFrequenciesMatchControl is the leaderless counterpart.
func TestCompactedFrequenciesMatchControl(t *testing.T) {
	const n, lag = 8, 3
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i].Value = int64(i % 3)
	}
	s := dynnet.NewRandomConnected(n, 0.4, 42)
	rounds := 3*n + 2
	run := buildTree(t, s, inputs, rounds)
	control := buildTree(t, s, inputs, rounds)

	solver, ref := NewSolver(), NewSolver()
	for l := 0; l <= rounds; l++ {
		want, err := ref.FrequenciesAt(control.Tree, l)
		if err != nil {
			t.Fatalf("level=%d: control FrequenciesAt: %v", l, err)
		}
		got, err := solver.FrequenciesAt(run.Tree, l)
		if err != nil {
			t.Fatalf("level=%d: compacted FrequenciesAt: %v", l, err)
		}
		if !sameFreq(want, got) {
			t.Fatalf("level=%d: compacted %+v != control %+v", l, got, want)
		}
		if keep := min(l-lag, solver.ConsumedLevel()); keep > 1 {
			run.Tree.CompactLevels(keep)
		}
	}
	if run.Tree.CompactedLevels() == 0 {
		t.Fatal("compaction never engaged")
	}
}

// TestCompactLevelsReleasesStorage pins the accounting: compacting a fully
// built tree releases every node on the frozen levels and nothing else.
func TestCompactLevelsReleasesStorage(t *testing.T) {
	const n = 10
	s := dynnet.NewRandomConnected(n, 0.4, 7)
	rounds := 3 * n
	run := buildTree(t, s, leaderInputs(n), rounds)
	tree := run.Tree

	before := tree.NumNodes()
	frozen := 0
	keepFrom := tree.Depth() - 2
	for l := 1; l < keepFrom; l++ {
		frozen += len(tree.Level(l))
	}
	released := tree.CompactLevels(keepFrom)
	if released != frozen {
		t.Fatalf("released %d nodes, want %d (levels 1..%d)", released, frozen, keepFrom-1)
	}
	if got := tree.NumNodes(); got != before-frozen {
		t.Fatalf("NumNodes=%d after compaction, want %d", got, before-frozen)
	}
	if tree.CompactedLevels() != keepFrom-1 {
		t.Fatalf("CompactedLevels=%d, want %d", tree.CompactedLevels(), keepFrom-1)
	}
	for l := 1; l < keepFrom; l++ {
		if len(tree.Level(l)) != 0 {
			t.Fatalf("level %d still holds %d nodes", l, len(tree.Level(l)))
		}
	}
	// The live region must still be walkable for the protocol's reads.
	for l := keepFrom; l <= tree.Depth(); l++ {
		if len(tree.Level(l)) == 0 {
			t.Fatalf("live level %d emptied", l)
		}
	}
	for _, v := range tree.Level(keepFrom) {
		if v.Parent != nil || v.Red != nil {
			t.Fatalf("boundary node %d retains links into the frozen region", v.ID)
		}
	}
	// Re-compacting the same region, compacting level ≤ 1, and compacting
	// past the depth (clamps to keeping the deepest level) are no-ops.
	if got := tree.CompactLevels(keepFrom); got != 0 {
		t.Fatalf("re-compaction released %d nodes", got)
	}
	if got := tree.CompactLevels(1); got != 0 {
		t.Fatalf("CompactLevels(1) released %d nodes", got)
	}
}

// TestCompactLevelsNoOpAllocationFree is the satellite allocation gate: a
// call that releases nothing must not allocate (it sits on the per-round
// hot path in core.Process, which calls it every level).
func TestCompactLevelsNoOpAllocationFree(t *testing.T) {
	const n = 8
	s := dynnet.NewRandomConnected(n, 0.4, 3)
	run := buildTree(t, s, leaderInputs(n), 2*n)
	tree := run.Tree
	keepFrom := tree.Depth() - 2
	tree.CompactLevels(keepFrom)
	if avg := testing.AllocsPerRun(100, func() {
		if tree.CompactLevels(keepFrom) != 0 {
			t.Fatal("no-op call released nodes")
		}
	}); avg != 0 {
		t.Fatalf("no-op CompactLevels allocates %.1f times per call", avg)
	}
}

// TestTruncateIntoCompactedRegionPanics pins the backstop: a reset that
// rewinds into released history is a protocol-level impossibility the tree
// refuses to paper over.
func TestTruncateIntoCompactedRegionPanics(t *testing.T) {
	const n = 8
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	run := buildTree(t, s, leaderInputs(n), 2*n)
	tree := run.Tree
	keepFrom := tree.Depth() - 2
	tree.CompactLevels(keepFrom)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("TruncateLevels into the compacted region did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "compacted") {
			t.Fatalf("panic %v does not mention the compacted region", r)
		}
	}()
	tree.TruncateLevels(keepFrom - 1)
}

// TestTruncateAboveCompactedRegionWorks: truncating strictly above the
// frozen region stays legal — the tree can still rewind its live suffix.
func TestTruncateAboveCompactedRegionWorks(t *testing.T) {
	const n = 8
	s := dynnet.NewRandomConnected(n, 0.4, 9)
	run := buildTree(t, s, leaderInputs(n), 2*n)
	tree := run.Tree
	keepFrom := tree.Depth() - 3
	tree.CompactLevels(keepFrom)
	tree.TruncateLevels(tree.Depth() - 1)
	if tree.Depth() != keepFrom+1 {
		t.Fatalf("Depth=%d after truncation, want %d", tree.Depth(), keepFrom+1)
	}
}
