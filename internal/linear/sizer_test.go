package linear

import (
	"math/rand/v2"
	"slices"
	"testing"

	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// synthUniverse interns a random closed class universe: width classes
// per level over depth levels, each deeper class with a random parent and
// a random red multiset one level up. Multiplicities reach past 127 so
// red entries take 2-byte varints, and inputs include negative values.
func synthUniverse(rng *rand.Rand, itn *interner, depth, width int) [][]int32 {
	byLevel := make([][]int32, depth)
	for l := range byLevel {
		for range width {
			ci := classInfo{level: int32(l), parent: -1}
			if l == 0 {
				ci.input = historytree.Input{Leader: rng.IntN(8) == 0, Value: rng.Int64N(400) - 200}
			} else {
				up := byLevel[l-1]
				ci.parent = up[rng.IntN(len(up))]
				heard := map[int32]int32{}
				for range rng.IntN(5) {
					heard[up[rng.IntN(len(up))]] += 1 + rng.Int32N(150)
				}
				for src, mult := range heard {
					ci.reds = append(ci.reds, redRef{src: src, mult: mult})
				}
				slices.SortFunc(ci.reds, func(a, b redRef) int { return int(a.src - b.src) })
			}
			id := itn.intern(ci)
			if !slices.Contains(byLevel[l], id) {
				byLevel[l] = append(byLevel[l], id)
			}
		}
	}
	return byLevel
}

// FuzzViewSizer grows two views over a synthetic universe in random
// closed insertion orders — classes often arrive below levels already
// sized — and has each view now and then merge the other's last sent
// levels, which drives the skip and adoption of shared level slices.
// After every step it checks the stepping view's incremental size and
// class order against the witness, and that no level sent earlier was
// written again. Universes of up to 288 classes push positions across
// the 127/128 varint boundary.
func FuzzViewSizer(f *testing.F) {
	f.Add(int64(1), uint8(11), uint8(23), uint8(0))
	f.Add(int64(2), uint8(5), uint8(40), uint8(3))
	f.Add(int64(3), uint8(2), uint8(7), uint8(1))
	f.Add(int64(4), uint8(0), uint8(0), uint8(2))

	f.Fuzz(func(t *testing.T, seed int64, depthSel, widthSel, batchSel uint8) {
		rng := rand.New(rand.NewPCG(uint64(seed), 0))
		itn := newInterner()
		universe := synthUniverse(rng, itn, 1+int(depthSel)%12, 1+int(widthSel)%24)
		infos := itn.snapshot()
		var all []int32
		for _, l := range universe {
			all = append(all, l...)
		}
		addable := func(s *viewSizer, id int32) bool {
			ci := infos[id]
			if s.have.has(id) || (ci.parent >= 0 && !s.have.has(ci.parent)) {
				return false
			}
			for _, r := range ci.reds {
				if !s.have.has(r.src) {
					return false
				}
			}
			return true
		}

		type peer struct {
			s    viewSizer
			sent []level   // levels of the last size call
			kept [][]int32 // copies of sent, to detect later writes
		}
		var peers [2]peer
		for steps := 0; len(peers[0].s.levels) == 0 || peers[0].s.count+peers[1].s.count < 2*len(all); steps++ {
			if steps > 8*len(all) {
				t.Fatalf("views stopped growing at %d and %d of %d classes",
					peers[0].s.count, peers[1].s.count, len(all))
			}
			me, other := &peers[steps%2], &peers[1-steps%2]
			if other.sent != nil && rng.IntN(3) == 0 {
				me.s.merge(other.sent)
			}
			for range 1 + int(batchSel)%4 {
				var cands []int32
				for _, id := range all {
					if addable(&me.s, id) {
						cands = append(cands, id)
					}
				}
				if len(cands) == 0 {
					break
				}
				me.s.add(cands[rng.IntN(len(cands))])
			}
			var view []int32
			for _, id := range all {
				if me.s.have.has(id) {
					view = append(view, id)
				}
			}
			if len(view) == 0 {
				continue
			}
			self := view[rng.IntN(len(view))]
			bits := me.s.size(itn, self)

			var ids []int32
			for _, l := range me.s.levels {
				ids = append(ids, l.ids...)
			}
			v, order := buildView(infos, view, self)
			if want := wire.SizeOf(v); bits != want {
				t.Fatalf("view of %d classes sized %d bits, witness %d", len(view), bits, want)
			}
			if !slices.Equal(ids, order) {
				t.Fatalf("levels not in canonical order:\n got %v\nwant %v", ids, order)
			}
			for _, p := range peers {
				for l := range p.sent {
					if !slices.Equal(p.sent[l].ids, p.kept[l]) {
						t.Fatalf("sent level %d was written after it was sent", l)
					}
				}
			}
			me.sent = me.s.levels
			me.kept = me.kept[:0]
			for _, l := range me.sent {
				me.kept = append(me.kept, slices.Clone(l.ids))
			}
		}
	})
}
