package historytree

import (
	"testing"

	"anondyn/internal/dynnet"
)

// Allocation-regression gates for the arena/interning rewrite. The bounds
// are deliberately loose (≈2× the measured steady state) so they catch a
// return to per-process-per-round map and string churn — the seed spent n
// observation maps plus a serialized signature per process per round, two
// orders of magnitude above these limits — without flaking on allocator
// noise or Go-version drift.

// buildWarm constructs a tree `warmRounds` deep with a shared refiner, so a
// subsequent refine call measures the steady state, not first-growth.
func buildWarm(t *testing.T, n, warmRounds int) (*Tree, *refiner, *dynnet.Multigraph, []*Node, int, map[int]int) {
	t.Helper()
	s := dynnet.NewRandomConnected(n, 0.4, 5)
	tree := New()
	nextID := 0
	card := map[int]int{RootID: n}
	parent, err := tree.AddChild(nextID, tree.Root(), Input{Leader: true})
	if err != nil {
		t.Fatal(err)
	}
	nextID++
	card[parent.ID] = n
	cur := make([]*Node, n)
	for p := range cur {
		cur[p] = parent
	}
	ref := newRefiner(n)
	for round := 1; round <= warmRounds; round++ {
		next, err := ref.refine(tree, s.Graph(round), cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return tree, ref, s.Graph(warmRounds + 1), cur, nextID, card
}

func TestRefineRoundAllocs(t *testing.T) {
	tree, ref, g, cur, nextID, card := buildWarm(t, 8, 16)
	allocs := testing.AllocsPerRun(64, func() {
		next, err := ref.refine(tree, g, cur, &nextID, card)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	})
	// Steady state: the returned level slice, plus amortized arena-chunk
	// and table-bucket growth. The seed's refine allocated n maps and n
	// signature strings per call (≥ 3n+1 ≈ 25 here) before any grouping.
	if allocs > 8 {
		t.Fatalf("refine allocated %.1f objects per round, want ≤ 8", allocs)
	}
}

func TestCanonicalFormAllocs(t *testing.T) {
	s := dynnet.NewRandomConnected(8, 0.4, 5)
	inputs := make([]Input, 8)
	inputs[0].Leader = true
	run, err := Build(s, inputs, 12)
	if err != nil {
		t.Fatal(err)
	}
	form := CanonicalForm(run.Tree)
	allocs := testing.AllocsPerRun(32, func() {
		if got := CanonicalForm(run.Tree); got != form {
			t.Fatalf("unstable canonical form")
		}
	})
	// The integer-token rewrite allocates the color index, the growing
	// output/name buffers, and per-level token slices — all O(levels +
	// log growth), independent of how many node names are concatenated.
	// The seed's strings.Builder construction allocated several strings
	// per node (hundreds on this tree).
	if allocs > 64 {
		t.Fatalf("CanonicalForm allocated %.1f objects, want ≤ 64", allocs)
	}
}
