package linear

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// This file holds the witness for message sizing: buildView renders a
// view as the canonical wire.View the linear protocol's messages are
// billed for, and the tests below check that the incremental viewSizer
// reports exactly wire.SizeOf of that view, in the same class order, for
// every message of real runs and for synthetic views built in adversarial
// insertion orders.

// witnessMsg checks one sent message against the witness and returns
// the number of classes in its view.
func witnessMsg(t *testing.T, infos []classInfo, m *viewMsg) int {
	t.Helper()
	var ids []int32
	for _, l := range m.levels {
		ids = append(ids, l.ids...)
	}
	v, order := buildView(infos, ids, m.self)
	if want := wire.SizeOf(v); m.bits != want {
		t.Errorf("message of %d classes billed %d bits, witness %d", len(ids), m.bits, want)
	}
	if !slices.Equal(ids, order) {
		t.Errorf("view levels not in canonical order:\n got %v\nwant %v", ids, order)
	}
	return len(ids)
}

// TestLinearViewSizeWitness runs the protocol over an in-model fault
// plan in both modes and every block length on the engine's sequential
// runner, and checks every sent message against the witness. n=12 grows
// views past 128 classes, so 2-byte positions are billed too.
func TestLinearViewSizeWitness(t *testing.T) {
	const n = 12
	const spec = "spike:4:16,storm:1:0:2"
	maxClasses := 0
	modes := map[string]core.Mode{"leader": core.ModeLeader, "leaderless": core.ModeLeaderless}
	for modeName, mode := range modes {
		for _, T := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/T=%d/sequential", modeName, T), func(t *testing.T) {
				plan, err := faults.Parse(spec, T, 7)
				if err != nil {
					t.Fatal(err)
				}
				base := dynnet.Schedule(dynnet.NewRandomConnected(n, 0.5, int64(T)*101+3))
				if T > 1 {
					if base, err = dynnet.NewUnionConnected(base, T); err != nil {
						t.Fatal(err)
					}
				}
				inputs := make([]historytree.Input, n)
				cfg := Config{Mode: mode, BlockT: T, MaxLevels: 3*n + 8}
				if mode == core.ModeLeader {
					inputs[0].Leader = true
				} else {
					for i := range inputs {
						inputs[i].Value = int64(i % 3)
					}
					cfg.DiamBound = n * T
				}
				itn := newInterner()
				msgs := 0
				opts := core.RunOptions{Trace: func(_ int, sent []engine.Message) {
					infos := itn.snapshot()
					for _, raw := range sent {
						if m, ok := raw.(*viewMsg); ok {
							maxClasses = max(maxClasses, witnessMsg(t, infos, m))
							msgs++
						}
					}
				}}
				if _, err := run(itn, plan.Wrap(base), inputs, cfg, opts); err != nil {
					t.Fatal(err)
				}
				if msgs == 0 {
					t.Fatal("no messages checked")
				}
			})
		}
	}
	if maxClasses <= 128 {
		t.Fatalf("largest view has %d classes; positions never needed 2 bytes", maxClasses)
	}
}

// buildView renders a class-ID set as a canonical wire.View: levels
// ascending, level-0 classes ordered by input, deeper classes by
// (parent position, red list); positions are the resulting indices.
// Hash-consing makes the within-level keys unique, so the order — and
// therefore the encoding and its size — depends only on the abstract
// view, not on interner ID assignment order. It also returns the class
// IDs in that order. It is the witness the incremental viewSizer is
// checked against.
func buildView(infos []classInfo, ids []int32, self int32) (*wire.View, []int32) {
	maxLevel := int32(0)
	for _, id := range ids {
		if l := infos[id].level; l > maxLevel {
			maxLevel = l
		}
	}
	buckets := make([][]int32, maxLevel+1)
	for _, id := range ids {
		l := infos[id].level
		buckets[l] = append(buckets[l], id)
	}
	pos := make(map[int32]int32, len(ids))
	out := &wire.View{Classes: make([]wire.ViewClass, 0, len(ids))}
	order := make([]int32, 0, len(ids))
	for level, bucket := range buckets {
		cand := make([]wire.ViewClass, len(bucket))
		for i, id := range bucket {
			ci := infos[id]
			vc := wire.ViewClass{Level: int32(level), Parent: -1}
			if ci.parent >= 0 {
				vc.Parent = pos[ci.parent]
			} else {
				vc.Leader = ci.input.Leader
				vc.Value = ci.input.Value
			}
			if len(ci.reds) > 0 {
				vc.Reds = make([]wire.ViewRed, len(ci.reds))
				for j, r := range ci.reds {
					vc.Reds[j] = wire.ViewRed{Src: pos[r.src], Mult: r.mult}
				}
				sort.Slice(vc.Reds, func(a, b int) bool { return vc.Reds[a].Src < vc.Reds[b].Src })
			}
			cand[i] = vc
		}
		idx := make([]int, len(bucket))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return lessViewClass(cand[idx[a]], cand[idx[b]]) })
		for _, oi := range idx {
			pos[bucket[oi]] = int32(len(out.Classes))
			out.Classes = append(out.Classes, cand[oi])
			order = append(order, bucket[oi])
		}
	}
	out.Self = pos[self]
	return out, order
}

// lessViewClass is the canonical within-level order: by input for level
// 0, by (parent position, red list) for deeper levels. Same-level classes
// never compare equal — the interner guarantees identical content means
// identical ID, and each ID appears once.
func lessViewClass(a, b wire.ViewClass) bool {
	if a.Level == 0 {
		if a.Leader != b.Leader {
			return a.Leader
		}
		return a.Value < b.Value
	}
	if a.Parent != b.Parent {
		return a.Parent < b.Parent
	}
	for i := 0; i < len(a.Reds) && i < len(b.Reds); i++ {
		if a.Reds[i].Src != b.Reds[i].Src {
			return a.Reds[i].Src < b.Reds[i].Src
		}
		if a.Reds[i].Mult != b.Reds[i].Mult {
			return a.Reds[i].Mult < b.Reds[i].Mult
		}
	}
	return len(a.Reds) < len(b.Reds)
}
