package historytree

import (
	"fmt"

	"anondyn/internal/dynnet"
)

// Run is the oracle-built history tree of a concrete execution: the tree
// itself plus the assignment of processes to nodes at every round and the
// resulting class cardinalities. The protocol under test never sees a Run —
// it is ground truth for the test and benchmark suites.
type Run struct {
	// Tree is the history tree of the first `Rounds` rounds.
	Tree *Tree
	// Rounds is the number of simulated rounds (levels 0..Rounds exist).
	Rounds int
	// NodeOf[t][p] is the node representing process p at the end of round
	// t, for t in [0, Rounds].
	NodeOf [][]*Node
	// Card maps each node ID to the number of processes it represents.
	Card map[int]int
}

// Build simulates `rounds` rounds of the schedule with the given per-process
// inputs and returns the true history tree. Two processes are
// indistinguishable at round 0 iff their inputs are equal; at round t+1 iff
// they were indistinguishable at round t and received equal multisets of
// (class, multiplicity) messages.
func Build(s dynnet.Schedule, inputs []Input, rounds int) (*Run, error) {
	n := s.N()
	if len(inputs) != n {
		return nil, fmt.Errorf("historytree: %d inputs for %d processes", len(inputs), n)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("historytree: negative round count %d", rounds)
	}

	t := New()
	nextID := 0
	card := map[int]int{RootID: n}

	// Level 0: partition by input, in first-appearance order.
	level0 := make(map[Input]*Node)
	cur := make([]*Node, n)
	for p := 0; p < n; p++ {
		node, ok := level0[inputs[p]]
		if !ok {
			var err error
			node, err = t.AddChild(nextID, t.Root(), inputs[p])
			if err != nil {
				return nil, err
			}
			nextID++
			level0[inputs[p]] = node
		}
		card[node.ID]++
		cur[p] = node
	}

	run := &Run{Tree: t, Rounds: rounds, Card: card}
	// NodeOf rows are never mutated after their round, so the working
	// slice is stored directly rather than copied.
	run.NodeOf = append(run.NodeOf, cur)

	ref := newRefiner(n)
	for round := 1; round <= rounds; round++ {
		g := s.Graph(round)
		if g.N() != n {
			return nil, fmt.Errorf("historytree: schedule graph at round %d has %d processes, want %d",
				round, g.N(), n)
		}
		next, err := ref.refine(t, g, cur, &nextID, card)
		if err != nil {
			return nil, err
		}
		cur = next
		run.NodeOf = append(run.NodeOf, cur)
	}
	return run, nil
}

// refine computes the next level: processes in the same class split
// according to the multiset of classes (with multiplicities) they hear
// from. All per-round scratch (observation slices, the group table, the
// stored group keys) lives on the refiner and is reused across rounds; the
// only per-round allocation in steady state is the returned level slice.
func (r *refiner) refine(t *Tree, g *dynnet.Multigraph, cur []*Node, nextID *int, card map[int]int) ([]*Node, error) {
	n := len(cur)
	for p := 0; p < n; p++ {
		r.obs[p] = r.obs[p][:0]
	}
	for _, l := range g.CanonicalLinks() {
		if l.U == l.V {
			r.obs[l.U] = append(r.obs[l.U], pair{cur[l.U].ID, l.Mult})
			continue
		}
		r.obs[l.U] = append(r.obs[l.U], pair{cur[l.V].ID, l.Mult})
		r.obs[l.V] = append(r.obs[l.V], pair{cur[l.U].ID, l.Mult})
	}

	// Group processes by (current class, canonical observation). The table
	// is keyed by a collision-checked hash; the exact tuple is compared on
	// every hit, so a collision costs one extra comparison, never a wrong
	// merge. Process indices ascend, so node creation order is reproducible
	// (and matches the seed implementation exactly).
	r.gen++
	r.keyArena = r.keyArena[:0]
	next := make([]*Node, n)
	for p := 0; p < n; p++ {
		obs := canonPairs(r.obs[p])
		r.obs[p] = obs
		h := hashPairs(uint64(cur[p].ID), obs)
		slot := r.lookup(h, cur[p], obs)
		node := slot.node
		if slot.gen != r.gen {
			var err error
			node, err = t.AddChild(*nextID, cur[p], Input{})
			if err != nil {
				return nil, err
			}
			*nextID++
			// obs is already sorted by source ID, matching the seed's
			// sortedKeys insertion order.
			for _, o := range obs {
				if err := t.AddRed(node, t.NodeByID(o.id), o.mult); err != nil {
					return nil, err
				}
			}
			off := len(r.keyArena)
			r.keyArena = append(r.keyArena, obs...)
			key := r.keyArena[off:len(r.keyArena):len(r.keyArena)]
			*slot = groupSlot{gen: r.gen, hash: h, parent: cur[p], pairs: key, node: node}
		}
		card[node.ID]++
		next[p] = node
	}
	return next, nil
}

// pairsEqual is slices.Equal specialized to pair; kept as a named function
// so the refine hot loop stays readable.
func pairsEqual(a, b []pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
