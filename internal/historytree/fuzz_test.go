package historytree

import (
	"testing"

	"anondyn/internal/dynnet"
)

// FuzzSolverWitness fuzzes the incremental Solver against its from-scratch
// witness: on an arbitrary (n, density, seed, leaderless) oracle tree, the
// Solver fed one level at a time and the big.Rat Count/Frequencies must
// agree — same errors, same known/unknown decision, and the same answer —
// at every complete-level prefix. Crashers land in
// testdata/fuzz/FuzzSolverWitness/ and are replayed by plain `go test`
// once checked in.
func FuzzSolverWitness(f *testing.F) {
	f.Add(byte(0), uint16(0), int64(1), false)
	f.Add(byte(4), uint16(26000), int64(42), false)
	f.Add(byte(8), uint16(65535), int64(-3), true)
	f.Add(byte(2), uint16(300), int64(7), true)
	f.Fuzz(func(t *testing.T, nRaw byte, pRaw uint16, seed int64, leaderless bool) {
		n := 2 + int(nRaw)%9 // [2, 10]: the per-prefix from-scratch sweep is O(n^4)
		p := float64(pRaw) / 65535
		s := dynnet.NewRandomConnected(n, p, seed)
		inputs := make([]Input, n)
		if leaderless {
			for i := range inputs {
				inputs[i].Value = int64(i % 3)
			}
		} else {
			inputs[0].Leader = true
		}
		run, err := Build(s, inputs, 3*n)
		if err != nil {
			t.Fatal(err)
		}
		inc := NewSolver()
		for l := 0; l <= run.Rounds; l++ {
			if leaderless {
				want, err1 := Frequencies(run.Tree, l)
				got, err2 := inc.FrequenciesAt(run.Tree, l)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("level %d: error divergence: witness %v, incremental %v", l, err1, err2)
				}
				if err1 == nil && !sameFreq(want, got) {
					t.Fatalf("level %d: incremental %+v != witness %+v", l, got, want)
				}
				continue
			}
			want, err1 := Count(run.Tree, l)
			got, err2 := inc.CountAt(run.Tree, l)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("level %d: error divergence: witness %v, incremental %v", l, err1, err2)
			}
			if err1 == nil && !sameCount(want, got) {
				t.Fatalf("level %d: incremental %+v != witness %+v", l, got, want)
			}
		}
	})
}
