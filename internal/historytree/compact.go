package historytree

// History-level compaction (DESIGN.md decision 14). A counting run only
// ever reads a bounded window of its history tree: the protocol reads the
// last level or two (setUpNewLevel, updateVHT), the answer extraction reads
// level 0, and the incremental Solver consumes each level's balance
// equations exactly once, lifting its elimination state onto each new
// level instead of re-reading old ones. Once a level has been consumed it
// is never re-read from the tree, so its nodes are dead weight: over a long leaderless run the tree retains O(rounds) nodes for
// an O(active view) working set.
//
// CompactLevels releases that weight. It freezes levels 1..keepFrom-1:
// their nodes leave the level and byID indexes, node-arena chunks that hold
// no surviving node are dropped, and the live nodes' edge slices are
// re-carved into fresh arenas so the old edge chunks free too. The root and
// level 0 always stay live (level-0 nodes carry the inputs the answer is
// phrased in, and the Solver holds pointers to them), as do all levels ≥
// keepFrom.
//
// A compacted tree supports the growth path (AddChild, AddRed on live
// levels), the incremental Solver, and the stats accessors — but not the
// whole-tree consumers: Clone, Validate, views, canonical forms, and the
// from-scratch Count/Frequencies all walk parent chains into the released
// region. The Solver therefore answers "unknown" instead of delegating to
// the from-scratch path when its prefix breaks over a compacted tree, and
// TruncateLevels panics on targets inside the compacted region (core turns
// a reset aimed there into a structured error first).

// CompactLevels releases all levels in 1..keepFrom-1, reclaiming their node
// and edge storage, and returns the number of nodes released. Levels ≥
// keepFrom, level 0, and the root are untouched. Calls that would release
// nothing new — keepFrom ≤ 2, a region already compacted, or keepFrom
// beyond the deepest level — are no-ops (beyond-depth requests clamp to
// keeping the deepest level live) and allocate nothing.
//
// The caller must guarantee the frozen levels can never be re-read: every
// consumer of their equations has consumed them (Solver.ConsumedLevel ≥
// keepFrom-1 covers the counting side) and no truncation will ever target
// them (no protocol reset can rewind into the region).
func (t *Tree) CompactLevels(keepFrom int) int {
	if keepFrom > t.Depth() {
		keepFrom = t.Depth()
	}
	if keepFrom-1 <= t.compacted || keepFrom < 2 {
		return 0
	}
	t.mut++

	// Unlink the frozen levels.
	released := 0
	for l := t.compacted + 1; l < keepFrom; l++ {
		idx := l + 1
		for _, v := range t.levels[idx] {
			t.byID[v.ID+1] = nil
			t.numNodes--
			released++
		}
		t.levels[idx] = nil
	}
	// The boundary level keeps its nodes but loses its links into the
	// frozen region; level 0 likewise loses its children.
	for _, v := range t.Level(keepFrom) {
		v.Parent = nil
		v.Red = nil
	}
	for _, v := range t.Level(0) {
		v.Children = nil
	}
	t.compacted = keepFrom - 1
	t.freedNodes += released

	// Drop node chunks with no surviving node. A node survives iff byID
	// still points at it (dead entries were nilled above; truncation nils
	// them too).
	kept := t.nodeArena[:0]
	for ci := range t.nodeArena {
		chunk := t.nodeArena[ci]
		live := false
		for i := range chunk {
			if idx := chunk[i].ID + 1; idx >= 0 && idx < len(t.byID) && t.byID[idx] == &chunk[i] {
				live = true
				break
			}
		}
		if live {
			kept = append(kept, chunk)
		}
	}
	t.nodeArena = kept

	// Re-carve every live node's edge slices into fresh arenas so the old
	// edge chunks — shared with the released nodes — free as well.
	var childArena [][]*Node
	var redArena [][]RedEdge
	recarve := func(v *Node) {
		if n := len(v.Children); n > 0 {
			s := carve(&childArena, n)
			v.Children = append(s, v.Children...)
		}
		if n := len(v.Red); n > 0 {
			s := carve(&redArena, n)
			v.Red = append(s, v.Red...)
		}
	}
	recarve(t.root)
	for _, v := range t.Level(0) {
		recarve(v)
	}
	for l := keepFrom; l <= t.Depth(); l++ {
		for _, v := range t.Level(l) {
			recarve(v)
		}
	}
	t.childArena = childArena
	t.redArena = redArena
	return released
}

// CompactedLevels returns the deepest level released by CompactLevels
// (0 when the tree has never been compacted): levels 1..CompactedLevels
// hold no nodes.
func (t *Tree) CompactedLevels() int { return t.compacted }

// PeakResidentNodes returns the high-water mark of resident nodes over the
// tree's lifetime. Without compaction it equals NumNodes plus whatever
// truncations removed; with compaction it measures how large the working
// set ever actually was — the number the O(active view) claim is about.
func (t *Tree) PeakResidentNodes() int { return t.peakNodes }

// CompactedNodes returns the total number of nodes released by
// CompactLevels over the tree's lifetime.
func (t *Tree) CompactedNodes() int { return t.freedNodes }
