package linear

import (
	"cmp"
	"math/bits"
	"slices"
)

// viewSizer holds one process's view — its class IDs grouped by level,
// each level in canonical wire order — and keeps the exact size of the
// view's canonical encoding (what wire.SizeOf reports for the
// content-ordered wire.View) up to date incrementally, without building or
// encoding anything.
//
// Prefix locality makes this cheap. A class at level ℓ ≥ 1 is ordered by
// the positions of its parent and red sources, all at level ℓ-1, and its
// encoded bytes depend only on those positions; a position at ℓ is the
// number of classes below ℓ plus the rank inside ℓ. So classes arriving
// at level k leave every level below k — order and byte total — as it
// was, and only levels k and up are revisited. Inside a revisited level
// the old classes keep their relative order: ranks one level down change
// by a strictly increasing map, which preserves every comparison between
// old classes. New classes are therefore sorted among themselves and
// merged in, and each revisited level's byte total is recounted against
// the shifted positions.
//
// The same argument makes the canonical order of a level a property of
// its class set alone, so two views holding the same set at a level hold
// it in the same order. Processes exploit that to share level slices:
// a level equal to one heard is replaced by the heard slice with the
// lowest stamp, the lowest stamp floods the network, and a received level
// that is the very slice a view holds is skipped without a scan.
//
// Published level slices are never written again: a level that gains
// classes is merged into a fresh slice and the outer slice is copied on
// write, so a message keeps the levels it was sent with.
type viewSizer struct {
	levels []level
	bytes  []int // encoded bytes of each level's classes
	count  int   // classes across all levels
	have   idSet
	fresh  []int32 // added since the last size call, not yet placed
	offers []level // per level, the longest (then lowest-stamped) level heard since the last size call
	self   int32
	bits   int // size at the last size call; 0 before the first
}

// level is one level of a view: its class IDs in canonical order, never
// written after publication, and a run-unique stamp naming that slice.
type level struct {
	ids   []int32
	stamp uint64
}

// sizeScratch is the per-call scratch of viewSizer.place, lent from the
// run's interner so that no process holds one between rounds.
type sizeScratch struct {
	pos    []int32 // canonical position by class ID, valid for the levels being placed
	ra, rb []redRef
}

// add records a class of the view.
func (s *viewSizer) add(id int32) {
	if !s.have.has(id) {
		s.have.add(id)
		s.fresh = append(s.fresh, id)
	}
}

// merge adds the classes of a received view. A level that is the slice
// this view already holds is skipped; any other is scanned and offered
// for adoption.
func (s *viewSizer) merge(levels []level) {
	for l, lv := range levels {
		if l < len(s.levels) && s.levels[l].stamp == lv.stamp {
			continue
		}
		for _, id := range lv.ids {
			s.add(id)
		}
		if l >= len(s.offers) {
			s.offers = append(s.offers, make([]level, l+1-len(s.offers))...)
		}
		if o := &s.offers[l]; len(lv.ids) > len(o.ids) || len(lv.ids) == len(o.ids) && lv.stamp < o.stamp {
			*o = lv
		}
	}
}

// size places the classes added since the last call, adopts offered
// levels, and returns the canonical encoded size in bits of the view with
// self as the sender's class. The view must be closed under parents and
// red sources.
func (s *viewSizer) size(itn *interner, self int32) int {
	placed := len(s.fresh) > 0
	infos := itn.snapshot()
	if placed {
		s.place(itn, infos)
	}
	s.adopt(placed)
	if !placed && self == s.self && s.bits > 0 {
		return s.bits
	}
	s.self = self
	lvl := infos[self].level
	selfPos := slices.Index(s.levels[lvl].ids, self)
	for _, l := range s.levels[:lvl] {
		selfPos += len(l.ids)
	}
	total := varintLen(uint64(s.count)) + varintLen(uint64(selfPos))
	for _, b := range s.bytes {
		total += b
	}
	s.bits = 8 * total
	return s.bits
}

// adopt replaces each level that equals its offer — a heard level of the
// same length holds the same classes, since all of them were added — by
// the offer if that has the lower stamp, and clears the offers. owned
// says s.levels is unpublished and may be written in place.
func (s *viewSizer) adopt(owned bool) {
	for l, o := range s.offers {
		if l >= len(s.levels) || o.ids == nil || len(o.ids) != len(s.levels[l].ids) || o.stamp >= s.levels[l].stamp {
			continue
		}
		if !owned {
			s.levels = slices.Clone(s.levels)
			owned = true
		}
		s.levels[l] = o
	}
	clear(s.offers)
	s.offers = s.offers[:0]
}

// place merges the fresh classes into their levels and recounts the byte
// totals of every level from the lowest one that gained a class.
func (s *viewSizer) place(itn *interner, infos []classInfo) {
	fresh := s.fresh
	slices.SortFunc(fresh, func(a, b int32) int { return cmp.Compare(infos[a].level, infos[b].level) })
	low := int(infos[fresh[0]].level)
	top := int(infos[fresh[len(fresh)-1]].level)

	levels := make([]level, max(len(s.levels), top+1))
	copy(levels, s.levels)
	for len(s.bytes) < len(levels) {
		s.bytes = append(s.bytes, 0)
	}
	sc := itn.borrowScratch(len(infos))
	defer itn.scratch.Put(sc)
	pos := sc.pos

	offset := 0
	for _, l := range levels[:low] {
		offset += len(l.ids)
	}
	if low > 0 {
		below := levels[low-1].ids
		for i, id := range below {
			pos[id] = int32(offset - len(below) + i)
		}
	}
	less := func(a, b int32) int { return compareClass(infos, sc, a, b) }
	for l := low; l < len(levels); l++ {
		n := 0
		for n < len(fresh) && int(infos[fresh[n]].level) == l {
			n++
		}
		if n > 0 {
			if size := len(levels[l].ids) + n; l < len(s.offers) && len(s.offers[l].ids) == size {
				levels[l] = s.offers[l]
			} else {
				slices.SortFunc(fresh[:n], less)
				levels[l] = level{ids: mergeSorted(levels[l].ids, fresh[:n], less), stamp: itn.newStamp()}
			}
			s.count += n
			fresh = fresh[n:]
		}
		lvlBytes := varintLen(uint64(l))
		b := 0
		for i, id := range levels[l].ids {
			pos[id] = int32(offset + i)
			ci := &infos[id]
			b += lvlBytes + varintLen(uint64(len(ci.reds)))
			if ci.parent >= 0 {
				b += varintLen(uint64(pos[ci.parent]) + 1)
			} else {
				b++
			}
			for _, r := range ci.reds {
				b += varintLen(uint64(pos[r.src])) + varintLen(uint64(r.mult))
			}
			if l == 0 {
				v := ci.input.Value
				b += 1 + varintLen(uint64(v)<<1^uint64(v>>63))
			}
		}
		s.bytes[l] = b
		offset += len(levels[l].ids)
	}
	s.levels = levels
	s.fresh = s.fresh[:0]
}

// mergeSorted merges two sorted, disjoint ID lists into a fresh slice.
func mergeSorted(old, add []int32, cmp func(a, b int32) int) []int32 {
	out := make([]int32, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) && j < len(add) {
		if cmp(old[i], add[j]) < 0 {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, old[i:]...)
	return append(out, add[j:]...)
}

// compareClass is the canonical within-level order of two same-level
// classes: by input for level 0 (leader first, then value), and by
// (parent position, red list) for deeper levels, the red lists compared
// lexicographically as (source position, multiplicity) pairs in source
// position order. sc.pos must hold the positions of the level below.
// Hash-consing makes distinct classes' keys distinct, so the order is
// total and independent of interner ID assignment.
func compareClass(infos []classInfo, sc *sizeScratch, a, b int32) int {
	ca, cb := &infos[a], &infos[b]
	if ca.level == 0 {
		if ca.input.Leader != cb.input.Leader {
			if ca.input.Leader {
				return -1
			}
			return 1
		}
		return cmp.Compare(ca.input.Value, cb.input.Value)
	}
	pos := sc.pos
	if c := cmp.Compare(pos[ca.parent], pos[cb.parent]); c != 0 {
		return c
	}
	// Siblings: reds are stored by source ID, so re-sort copies by
	// position. Distinct siblings are rare once symmetry breaks.
	bySrcPos := func(x, y redRef) int { return cmp.Compare(pos[x.src], pos[y.src]) }
	sc.ra = append(sc.ra[:0], ca.reds...)
	sc.rb = append(sc.rb[:0], cb.reds...)
	slices.SortFunc(sc.ra, bySrcPos)
	slices.SortFunc(sc.rb, bySrcPos)
	for i := 0; i < len(sc.ra) && i < len(sc.rb); i++ {
		if c := bySrcPos(sc.ra[i], sc.rb[i]); c != 0 {
			return c
		}
		if c := cmp.Compare(sc.ra[i].mult, sc.rb[i].mult); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(sc.ra), len(sc.rb))
}

// varintLen is the length in bytes of x as a minimal uvarint.
func varintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}
