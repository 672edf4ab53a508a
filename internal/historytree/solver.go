package historytree

import (
	"fmt"
	"math/big"
	"time"
)

// Solver is the incremental counterpart of Count and Frequencies. Where
// those rebuild coefficient vectors and re-run the whole elimination each
// time the tree gains a level, a Solver persists across levels: it keeps a
// reduced integer row basis of every balance equation seen so far, and when
// the deepest complete level advances from l to l+1 it (a) lifts the stored
// rows onto the new level's variables — each level-l column expands into
// the block of its children, which preserves pivots and rank — and (b)
// feeds only level l's balance equations, which are naturally sparse over
// the level-(l+1) basis. Elimination is fraction-free (Bareiss-style over
// big.Int with per-row content reduction), so the inner loop does integer
// multiply-subtract instead of allocating a big.Rat per cell.
//
// Because every equation of every consumed level is in the row space (the
// lift re-expresses old equations exactly as the from-scratch solver's
// descendant-coefficient expansion would), a rank of k−1 pins the same
// one-dimensional null space as Count's, and no post-hoc verification pass
// is needed: an equation the ray would violate is independent of the row
// space and would have pushed the rank to k instead.
//
// A Solver is attached to one tree at a time and assumes the consumed
// prefix only grows. Protocol resets rewrite the prefix while reusing node
// IDs, so the Solver watches Tree.Generation and rebuilds from level 0
// whenever it changes (or when asked about a shallower level than it has
// consumed). A Solver is not safe for concurrent use.
type Solver struct {
	t     *Tree
	gen   uint64
	level int // deepest consumed level; -1 when unattached

	basis   []*Node       // nodes of the consumed level, insertion order
	idx     map[*Node]int // basis node → column
	anc0    []*Node       // level-0 ancestor of each basis column
	covered []bool        // some ancestor (levels 1..level) has a cross red edge

	elim   *intElim // row basis over the basis columns
	broken bool     // structural fallback: delegate to from-scratch until reset

	stats SolverStats
}

// SolverStats counts the work a Solver has done, for regression tests and
// run-level reporting.
type SolverStats struct {
	// Calls counts CountAt/FrequenciesAt invocations.
	Calls int
	// LevelsConsumed counts level-extension steps (each consumes one new
	// complete level's equations exactly once).
	LevelsConsumed int
	// Rebuilds counts full rebuilds forced by tree truncation (resets),
	// retargeting, or a shallower query.
	Rebuilds int
	// Equations counts balance equations fed into the elimination state.
	Equations int
	// Fallbacks counts calls answered by the from-scratch solver because
	// the tree prefix was structurally incomplete.
	Fallbacks int
	// SolveTime accumulates wall time spent inside CountAt/FrequenciesAt.
	SolveTime time.Duration
}

// NewSolver returns an empty Solver; it attaches to a tree on first use.
func NewSolver() *Solver {
	return &Solver{level: -1}
}

// Stats returns the accumulated work counters.
func (s *Solver) Stats() SolverStats { return s.stats }

// CountAt is the incremental equivalent of Count(t, completeLevels).
func (s *Solver) CountAt(t *Tree, completeLevels int) (CountResult, error) {
	start := time.Now()
	defer func() {
		s.stats.Calls++
		s.stats.SolveTime += time.Since(start)
	}()
	leaders := leaderNodes(t)
	if len(leaders) != 1 {
		return CountResult{}, fmt.Errorf("historytree: %d leader classes at level 0, want 1", len(leaders))
	}
	ok, err := s.ensure(t, completeLevels)
	if err != nil {
		return CountResult{}, err
	}
	if !ok {
		s.stats.Fallbacks++
		if t.CompactedLevels() > 0 {
			// The from-scratch path needs the whole prefix, which
			// compaction released. Unknown is always a sound answer here:
			// the protocol extends the tree and retries.
			return CountResult{}, nil
		}
		return Count(t, completeLevels)
	}
	ray := s.resolve()
	if ray == nil {
		return CountResult{}, nil
	}
	return countFromWeights(t, s.weights(ray))
}

// FrequenciesAt is the incremental equivalent of Frequencies(t, completeLevels).
func (s *Solver) FrequenciesAt(t *Tree, completeLevels int) (FrequencyResult, error) {
	start := time.Now()
	defer func() {
		s.stats.Calls++
		s.stats.SolveTime += time.Since(start)
	}()
	ok, err := s.ensure(t, completeLevels)
	if err != nil {
		return FrequencyResult{}, err
	}
	if !ok {
		s.stats.Fallbacks++
		if t.CompactedLevels() > 0 {
			return FrequencyResult{}, nil
		}
		return Frequencies(t, completeLevels)
	}
	ray := s.resolve()
	if ray == nil {
		return FrequencyResult{}, nil
	}
	return frequenciesFromWeights(t, s.weights(ray))
}

// ensure advances the consumed prefix to completeLevels, rebuilding first if
// the tree was truncated or the query regressed. It returns ok=false when
// the prefix is structurally incomplete (a consumed-level node without
// children), in which case the caller must fall back to the from-scratch
// path.
func (s *Solver) ensure(t *Tree, completeLevels int) (bool, error) {
	if completeLevels < 0 || completeLevels > t.Depth() {
		return false, fmt.Errorf("historytree: completeLevels %d out of range [0,%d]", completeLevels, t.Depth())
	}
	stale := s.t != t || s.gen != t.Generation() ||
		completeLevels < s.level ||
		(s.level >= 0 && len(s.basis) != len(t.Level(s.level)))
	if stale {
		if s.t != nil {
			s.stats.Rebuilds++
		}
		s.reset(t)
	}
	if s.broken {
		return false, nil
	}
	if s.level < 0 {
		base := t.Level(0)
		if len(base) == 0 {
			return false, fmt.Errorf("historytree: empty level 0")
		}
		s.level = 0
		s.basis = base
		s.idx = make(map[*Node]int, len(base))
		s.anc0 = make([]*Node, len(base))
		s.covered = make([]bool, len(base))
		for i, v := range base {
			s.idx[v] = i
			s.anc0[i] = v
		}
		s.elim = newIntElim(len(base))
	}
	for s.level < completeLevels {
		if !s.extend(t) {
			s.broken = true
			return false, nil
		}
	}
	return true, nil
}

func (s *Solver) reset(t *Tree) {
	s.t = t
	s.gen = t.Generation()
	s.level = -1
	s.basis, s.idx, s.anc0, s.covered = nil, nil, nil, nil
	s.elim = nil
	s.broken = false
}

// ConsumedLevel returns the deepest level whose balance equations the
// solver has consumed (-1 before first use). Levels at or below it are
// never re-read from the tree — the gate Tree.CompactLevels callers need.
func (s *Solver) ConsumedLevel() int { return s.level }

// extend consumes one more level: it lifts the elimination state onto the
// next level's variables and feeds that level's balance equations. It
// returns false if the prefix is structurally incomplete for lifting.
func (s *Solver) extend(t *Tree) bool {
	next := t.Level(s.level + 1)
	if len(next) == 0 {
		return false
	}
	parentIdx := make([]int32, len(next))
	childCount := make([]int32, len(s.basis))
	for c, v := range next {
		j, ok := s.idx[v.Parent]
		if !ok {
			return false
		}
		parentIdx[c] = int32(j)
		childCount[j]++
	}
	for _, n := range childCount {
		if n == 0 {
			// A consumed-level class with no refinement: the prefix is not
			// actually complete, and lifting would drop a pivot column.
			return false
		}
	}

	// The new level's equations, collected before the basis moves so the
	// pair enumeration matches the from-scratch solver's.
	pairs := balancePairs(t, s.level)

	s.elim.lift(parentIdx, len(next))

	idx := make(map[*Node]int, len(next))
	anc0 := make([]*Node, len(next))
	covered := make([]bool, len(next))
	for c, v := range next {
		idx[v] = c
		anc0[c] = s.anc0[parentIdx[c]]
		covered[c] = s.covered[parentIdx[c]] || crossRed(v)
	}
	s.basis, s.idx, s.anc0, s.covered = next, idx, anc0, covered
	s.level++
	s.stats.LevelsConsumed++

	s.feed(pairs, idx, len(next))
	return true
}

// feed feeds one level's balance equations into the elimination.
func (s *Solver) feed(pairs []nodePair, idx map[*Node]int, k int) {
	row := make([]big.Int, k)
	for _, pair := range pairs {
		for i := range row {
			row[i].SetInt64(0)
		}
		used := false
		// A node is the child of exactly one of the pair, so each column is
		// written at most once.
		for _, c := range pair.w.Children {
			if m := c.RedMult(pair.u); m != 0 {
				row[idx[c]].SetInt64(int64(m))
				used = true
			}
		}
		for _, c := range pair.u.Children {
			if m := c.RedMult(pair.w); m != 0 {
				row[idx[c]].SetInt64(-int64(m))
				used = true
			}
		}
		if used {
			s.elim.addRow(row)
		}
		s.stats.Equations++
	}
}

// resolve extracts the positively-oriented null ray, or nil when the system
// is not (or not yet) determined. The covered gate skips extraction when
// some basis class has no red-edge constraint anywhere on its ancestor
// chain: its column is zero in every equation, so the null space has
// dimension ≥ 2 (or, degenerately, the ray would be a unit vector and fail
// the positivity check) — either way the answer is unknown.
func (s *Solver) resolve() []*big.Rat {
	k := len(s.basis)
	if k >= 2 {
		for _, c := range s.covered {
			if !c {
				return nil
			}
		}
	}
	if s.elim.rank != k-1 {
		return nil
	}
	ray := s.elim.nullRay()
	if !orientPositive(ray) {
		return nil
	}
	return ray
}

// weights folds the basis ray into per-level-0-class weights.
func (s *Solver) weights(ray []*big.Rat) map[*Node]*big.Rat {
	out := make(map[*Node]*big.Rat, len(s.t.Level(0)))
	for i, x := range ray {
		v := s.anc0[i]
		if w, ok := out[v]; ok {
			w.Add(w, x)
		} else {
			out[v] = new(big.Rat).Set(x)
		}
	}
	return out
}

// crossRed reports whether v has a red edge from a class other than its own
// parent. Only such edges produce balance equations, so a class whose whole
// ancestor chain lacks them is unconstrained.
func crossRed(v *Node) bool {
	for _, e := range v.Red {
		if e.Src != v.Parent {
			return true
		}
	}
	return false
}

// intElim is a fraction-free reduced row-echelon basis over the integers:
// rows are big.Int vectors divided by their content, each with a positive
// pivot entry that is the only nonzero in its column. It supports the two
// operations the incremental solver needs — adding a row, and lifting every
// row onto a refined variable set — plus null-ray extraction at corank 1.
type intElim struct {
	cols  int
	rows  [][]big.Int
	pivot []int
	rank  int
	has   []bool // has[c] = some row pivots at column c

	t1, t2, g big.Int // scratch
}

func newIntElim(cols int) *intElim {
	return &intElim{cols: cols, has: make([]bool, cols)}
}

// addRow reduces row against the basis and inserts it if independent. The
// backing array is copied only on insertion, so callers may reuse it.
func (e *intElim) addRow(row []big.Int) {
	for i := range e.rows {
		p := e.pivot[i]
		if row[p].Sign() == 0 {
			continue
		}
		// row ← a·row − b·basisRow, the fraction-free elimination step.
		e.t2.Set(&row[p])
		a, br := &e.rows[i][p], e.rows[i]
		for c := 0; c < e.cols; c++ {
			row[c].Mul(&row[c], a)
			if br[c].Sign() != 0 {
				e.t1.Mul(&e.t2, &br[c])
				row[c].Sub(&row[c], &e.t1)
			}
		}
		reduceContent(row, &e.g)
	}
	p := -1
	for c := 0; c < e.cols; c++ {
		if row[c].Sign() != 0 {
			p = c
			break
		}
	}
	if p < 0 {
		return // dependent
	}
	reduceContent(row, &e.g)
	if row[p].Sign() < 0 {
		for c := range row {
			row[c].Neg(&row[c])
		}
	}
	kept := make([]big.Int, e.cols)
	for c := range kept {
		kept[c].Set(&row[c])
	}
	// Back-eliminate the new pivot from existing rows to keep full
	// reduction (needed for O(1)-support rows at corank 1).
	for i := range e.rows {
		br := e.rows[i]
		if br[p].Sign() == 0 {
			continue
		}
		e.t2.Set(&br[p])
		for c := 0; c < e.cols; c++ {
			br[c].Mul(&br[c], &kept[p])
			if kept[c].Sign() != 0 {
				e.t1.Mul(&e.t2, &kept[c])
				br[c].Sub(&br[c], &e.t1)
			}
		}
		reduceContent(br, &e.g)
	}
	e.rows = append(e.rows, kept)
	e.pivot = append(e.pivot, p)
	e.has[p] = true
	e.rank++
}

// lift maps the state onto a refined variable set: old column j becomes the
// block of new columns c with parentIdx[c] == j. Old equations over class
// cardinalities hold verbatim when each cardinality is replaced by the sum
// of its children's, so every lifted row is a valid equation over the new
// variables; distinct pivots map to disjoint child blocks, preserving
// independence, full reduction, and rank. Each row's new pivot is the first
// child of its old pivot. Every old pivot column must have at least one
// child (the caller checks all columns).
func (e *intElim) lift(parentIdx []int32, newCols int) {
	firstChild := make([]int, e.cols)
	for j := range firstChild {
		firstChild[j] = -1
	}
	for c := newCols - 1; c >= 0; c-- {
		firstChild[parentIdx[c]] = c
	}
	for i := range e.rows {
		old := e.rows[i]
		lifted := make([]big.Int, newCols)
		for c := 0; c < newCols; c++ {
			lifted[c].Set(&old[parentIdx[c]])
		}
		e.rows[i] = lifted
		e.pivot[i] = firstChild[e.pivot[i]]
	}
	e.cols = newCols
	e.has = make([]bool, newCols)
	for _, p := range e.pivot {
		e.has[p] = true
	}
}

// nullRay returns a nonzero vector of the null space; it must only be
// called at rank == cols−1. Full reduction means each row is supported on
// its pivot and the single free column, so the ray reads off directly.
func (e *intElim) nullRay() []*big.Rat {
	free := -1
	for c := 0; c < e.cols; c++ {
		if !e.has[c] {
			free = c
			break
		}
	}
	out := make([]*big.Rat, e.cols)
	for c := range out {
		out[c] = new(big.Rat)
	}
	out[free].SetInt64(1)
	for i := range e.rows {
		b := &e.rows[i][free]
		if b.Sign() == 0 {
			continue
		}
		out[e.pivot[i]].SetFrac(b, &e.rows[i][e.pivot[i]])
		out[e.pivot[i]].Neg(out[e.pivot[i]])
	}
	return out
}

// reduceContent divides the row by the gcd of its entries (its content),
// bounding coefficient growth across fraction-free steps.
func reduceContent(row []big.Int, g *big.Int) {
	g.SetInt64(0)
	for i := range row {
		if row[i].Sign() == 0 {
			continue
		}
		g.GCD(nil, nil, g, &row[i])
		if g.Cmp(oneInt) == 0 {
			return
		}
	}
	if g.Sign() == 0 || g.Cmp(oneInt) == 0 {
		return
	}
	for i := range row {
		if row[i].Sign() != 0 {
			row[i].Quo(&row[i], g)
		}
	}
}

var oneInt = big.NewInt(1)
