package linear

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anondyn/internal/core"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/ints"
)

// classInfo describes one hash-consed history-tree class: its level, its
// parent class, the multiset of classes it heard from during its block
// (with multiplicities) and, for level-0 classes, the input.
type classInfo struct {
	level  int32
	parent int32 // class ID of the parent; -1 for level-0 classes
	reds   []redRef
	input  historytree.Input
}

type redRef struct {
	src  int32 // class ID at level-1
	mult int32
}

// interner hash-conses classInfos into dense integer IDs, shared by all
// processes of a run: two processes constructing structurally identical
// classes obtain the same ID, which is exactly the "merge equivalent view
// nodes" step of the full-information protocol — realized without
// re-encoding entire subtrees into every message. ID assignment order
// depends on the order processes run in, so nothing observable may depend
// on the numeric IDs: message sizes follow the canonical, content-ordered
// serialization instead (see viewSizer). The interner also lends the
// sizers their position scratch, so scratch is held per running sizer,
// not per process.
type interner struct {
	mu      sync.Mutex
	byKey   map[string]int32
	infos   []classInfo
	keyBuf  []byte    // mu-guarded key-rendering scratch
	scratch sync.Pool // of *sizeScratch
	stamps  atomic.Uint64
}

func newInterner() *interner {
	return &interner{byKey: make(map[string]int32)}
}

// intern returns the class ID for the given description, registering it
// if new and taking ownership of the reds slice. reds must be in
// canonical (sorted by src) order.
func (in *interner) intern(ci classInfo) int32 {
	in.mu.Lock()
	defer in.mu.Unlock()
	// Injective byte rendering ('|' and '*' never occur inside a decimal
	// field), built in a lock-guarded scratch buffer so lookups of known
	// classes allocate nothing.
	buf := in.keyBuf[:0]
	buf = ints.AppendInt(buf, int(ci.level))
	buf = append(buf, '|')
	buf = ints.AppendInt(buf, int(ci.parent))
	for _, r := range ci.reds {
		buf = append(buf, '|')
		buf = ints.AppendInt(buf, int(r.src))
		buf = append(buf, '*')
		buf = ints.AppendInt(buf, int(r.mult))
	}
	buf = append(buf, '|')
	if ci.input.Leader {
		buf = append(buf, 'L')
	}
	buf = ints.AppendInt(buf, int(ci.input.Value))
	in.keyBuf = buf
	if id, ok := in.byKey[string(buf)]; ok {
		return id
	}
	id := int32(len(in.infos))
	in.infos = append(in.infos, ci)
	in.byKey[string(buf)] = id
	return id
}

// snapshot returns a read-only prefix of the registered classInfos.
// Entries are never mutated after registration and appends never write
// below the returned length, so the snapshot may be read without the
// lock.
func (in *interner) snapshot() []classInfo {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.infos[:len(in.infos):len(in.infos)]
}

// newStamp returns a run-unique level stamp; 0 is never returned.
func (in *interner) newStamp() uint64 { return in.stamps.Add(1) }

// borrowScratch returns sizing scratch whose position table covers n
// class IDs; return it with in.scratch.Put.
func (in *interner) borrowScratch(n int) *sizeScratch {
	sc, _ := in.scratch.Get().(*sizeScratch)
	if sc == nil {
		sc = new(sizeScratch)
	}
	if len(sc.pos) < n {
		sc.pos = make([]int32, n+n/2)
	}
	return sc
}

// viewMsg is the full-information engine message: the sender's view as
// immutable per-level snapshots of class IDs (each level in canonical
// order) plus the sender's current class. The bits field carries the
// view's canonical wire size, kept up to date at send time by the
// sender's viewSizer, which the engine's SizeOf hook reports for
// congestion accounting.
type viewMsg struct {
	levels []level
	self   int32
	bits   int
}

// sizeOfMessage is the engine SizeOf hook: viewMsg sizes are precomputed
// at send time.
func sizeOfMessage(m engine.Message) int {
	if vm, ok := m.(*viewMsg); ok {
		return vm.bits
	}
	return 0
}

// idSet is a growable bitset over dense class IDs.
type idSet struct{ bits []uint64 }

func (s *idSet) has(id int32) bool {
	w := int(id >> 6)
	return w < len(s.bits) && s.bits[w]>>(uint(id)&63)&1 == 1
}

func (s *idSet) add(id int32) {
	w := int(id >> 6)
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	s.bits[w] |= 1 << (uint(id) & 63)
}

// process is one full-information participant.
type process struct {
	itn   *interner
	cfg   Config
	input historytree.Input

	solveTime  time.Duration
	solveCalls int
}

// run is the process coroutine: per block of T real rounds it broadcasts
// its current view every round, merges everything it hears, then refines
// itself into a new class from the block's delivery multiset and checks
// its mode's decision rule.
func (p *process) run(tr *engine.Transport) (any, error) {
	T := p.cfg.blockT()
	self := p.itn.intern(classInfo{level: 0, parent: -1, input: p.input})
	var view viewSizer
	view.add(self)
	heard := make(map[int32]int32)

	for {
		for j := 0; j < T; j++ {
			bits := view.size(p.itn, self)
			msg := &viewMsg{levels: view.levels, self: self, bits: bits}
			msgs, err := tr.SendAndReceive(msg)
			if err != nil {
				return nil, err
			}
			for _, raw := range msgs {
				m, ok := raw.(*viewMsg)
				if !ok {
					return nil, fmt.Errorf("linear: unexpected message %T", raw)
				}
				view.merge(m.levels)
				heard[m.self]++
			}
		}
		level := int32(tr.Round() / T)
		reds := make([]redRef, 0, len(heard))
		for src, mult := range heard {
			reds = append(reds, redRef{src: src, mult: mult})
		}
		slices.SortFunc(reds, func(a, b redRef) int { return cmp.Compare(a.src, b.src) })
		clear(heard)
		self = p.itn.intern(classInfo{level: level, parent: self, reds: reds})
		view.add(self)

		depth := int(level)
		if p.cfg.MaxLevels > 0 && depth > p.cfg.MaxLevels {
			return nil, fmt.Errorf("linear: view reached %d levels without a decision (MaxLevels %d)",
				depth, p.cfg.MaxLevels)
		}
		// Place the block's arrivals so the view's levels are whole; the
		// next send reuses this size.
		view.size(p.itn, self)
		oc, err := p.decide(depth, view.levels, tr)
		if err != nil {
			return nil, err
		}
		if oc != nil {
			return oc, nil
		}
	}
}

// decide applies the mode's decision rule at the current block depth and
// returns a non-nil Outcome once the process can output.
func (p *process) decide(depth int, levels []level, tr *engine.Transport) (*core.Outcome, error) {
	T := p.cfg.blockT()
	switch p.cfg.Mode {
	case core.ModeLeader:
		if !p.input.Leader {
			return nil, nil
		}
		tree, err := p.materialize(levels)
		if err != nil {
			return nil, err
		}
		// Scan completeness candidates from the shallowest up: the first
		// prefix that resolves the system has maximum slack, i.e. is the
		// most likely to be genuinely complete. If the depth condition
		// fails, wait for more blocks instead of trusting deeper (less
		// settled) prefixes.
		limit := chainComplete(tree, depth)
		for c := 0; c <= limit; c++ {
			res, err := p.countAt(tree, c)
			if err != nil {
				// Levels wrongly assumed complete; not settled yet.
				break
			}
			if !res.Known {
				continue
			}
			if depth >= c+res.N {
				return &core.Outcome{
					N: res.N, Multiset: res.Multiset, VHT: tree,
					Levels: depth, FinalRound: tr.Round(),
					Solver: historytree.SolverStats{Calls: p.solveCalls, SolveTime: p.solveTime},
				}, nil
			}
			break
		}
		return nil, nil
	case core.ModeLeaderless:
		// Only prefixes a full diameter bound behind the frontier are
		// provably complete AND provably present in every process's view,
		// so scanning exactly those keeps all processes in lockstep: they
		// resolve the same c at the same block and output together.
		lag := (p.cfg.DiamBound + T - 1) / T
		if depth < lag {
			return nil, nil
		}
		tree, err := p.materialize(levels)
		if err != nil {
			return nil, err
		}
		limit := depth - lag
		if cc := chainComplete(tree, limit); cc < limit {
			limit = cc
		}
		for c := 0; c <= limit; c++ {
			res, err := p.frequenciesAt(tree, c)
			if err != nil {
				break
			}
			if !res.Known {
				continue
			}
			return &core.Outcome{
				Frequencies: &res, VHT: tree,
				Levels: depth, FinalRound: tr.Round(), FinalDiamEstimate: p.cfg.DiamBound,
				Solver: historytree.SolverStats{Calls: p.solveCalls, SolveTime: p.solveTime},
			}, nil
		}
		return nil, nil
	}
	return nil, fmt.Errorf("linear: unknown mode %d", p.cfg.Mode)
}

// countAt runs the counting solver with timing accounted to the process.
func (p *process) countAt(tree *historytree.Tree, c int) (historytree.CountResult, error) {
	start := time.Now()
	res, err := historytree.CountWith(tree, c, p.cfg.Arithmetic)
	p.solveTime += time.Since(start)
	p.solveCalls++
	return res, err
}

// frequenciesAt runs the frequency solver with timing accounted to the
// process.
func (p *process) frequenciesAt(tree *historytree.Tree, c int) (historytree.FrequencyResult, error) {
	start := time.Now()
	res, err := historytree.FrequenciesWith(tree, c, p.cfg.Arithmetic)
	p.solveTime += time.Since(start)
	p.solveCalls++
	return res, err
}

// chainComplete returns the deepest candidate c ≤ depth such that every
// node at levels 0..c-1 has at least one child in the view — a necessary
// condition for levels 0..c to be complete (every true class is refined
// by its members every block), checked before the solver runs so
// structurally incomplete prefixes are never assumed complete.
func chainComplete(t *historytree.Tree, depth int) int {
	for l := 0; l < depth; l++ {
		for _, v := range t.Level(l) {
			if len(v.Children) == 0 {
				return l
			}
		}
	}
	return depth
}

// materialize builds a historytree.Tree from the view's levels. Global
// class IDs become node IDs, added level by level in ID order so parents
// precede children; views are closed under parents and red sources by
// construction (whole views are merged), so the lookups cannot miss.
func (p *process) materialize(levels []level) (*historytree.Tree, error) {
	infos := p.itn.snapshot()
	n := 0
	for _, l := range levels {
		n += len(l.ids)
	}
	ids := make([]int32, 0, n)
	for _, l := range levels {
		ids = append(ids, l.ids...)
		slices.Sort(ids[len(ids)-len(l.ids):])
	}
	t := historytree.New()
	for _, id := range ids {
		ci := infos[id]
		parent := t.Root()
		if ci.parent >= 0 {
			parent = t.NodeByID(int(ci.parent))
			if parent == nil {
				return nil, fmt.Errorf("linear: view not closed under parents (class %d)", id)
			}
		}
		node, err := t.AddChild(int(id), parent, ci.input)
		if err != nil {
			return nil, err
		}
		for _, r := range ci.reds {
			src := t.NodeByID(int(r.src))
			if src == nil {
				return nil, fmt.Errorf("linear: view not closed under red sources (class %d)", id)
			}
			if err := t.AddRed(node, src, int(r.mult)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}
