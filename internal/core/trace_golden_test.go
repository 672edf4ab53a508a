package core_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"anondyn/internal/adversary"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/faults"
	"anondyn/internal/historytree"
	"anondyn/internal/wire"
)

// traceHash returns a Trace hook folding every round's number and the
// value of each sent message (not its box identity) into an FNV-1a hash.
func traceHash() (hash.Hash64, func(round int, sent []engine.Message)) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h, func(round int, sent []engine.Message) {
		put(int64(round))
		put(int64(len(sent)))
		for _, raw := range sent {
			m, ok := wire.FromBox(raw)
			if !ok {
				put(-1)
				continue
			}
			put(int64(m.Label))
			put(m.A)
			put(m.B)
			put(m.C)
			put(int64(len(m.Ext)))
			h.Write([]byte(m.Ext))
		}
	}
}

func goldenLeaderInputs(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	in[0].Leader = true
	return in
}

// TestTraceGolden pins the complete message stream of representative runs:
// rounds, total bits, resets and a hash over every round's Trace, as produced by the
// per-round broadcast loop that predates engine relays. Relays fold
// deliveries inside the router instead of resuming each process every
// round, and this test holds them to the exact same stream: same messages,
// same rounds, same bills.
func TestTraceGolden(t *testing.T) {
	spikePlan, err := faults.Parse("spike:8:0", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		run    func(opts core.RunOptions) (*core.RunResult, error)
		rounds int
		bits   int64
		resets int
		hash   uint64
	}{
		{name: "path/n=12", rounds: 9986, bits: 3554248, resets: 4, hash: 0x46c318a0262474db, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.Run(dynnet.NewStatic(dynnet.Path(12)), goldenLeaderInputs(12),
				core.Config{Mode: core.ModeLeader}, opts)
		}},
		{name: "random/n=24", rounds: 1870, bits: 1237096, resets: 2, hash: 0xfaedac4114b5dbee, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.Run(dynnet.NewRandomConnected(24, 0.3, 1), goldenLeaderInputs(24),
				core.Config{Mode: core.ModeLeader}, opts)
		}},
		{name: "halt/shifting-path/n=9", rounds: 1675, bits: 341416, resets: 3, hash: 0x83b417e10b7c1465, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.Run(dynnet.NewShiftingPath(9), goldenLeaderInputs(9),
				core.Config{Mode: core.ModeLeader, SimultaneousHalt: true}, opts)
		}},
		{name: "leaderless/n=9", rounds: 569, bits: 132840, resets: 0, hash: 0xaba6ef2c377d4a12, run: func(opts core.RunOptions) (*core.RunResult, error) {
			in := make([]historytree.Input, 9)
			for i := range in {
				in[i].Value = int64(i % 3)
			}
			return core.Run(dynnet.NewRandomConnected(9, 0.3, 2), in,
				core.Config{Mode: core.ModeLeaderless, DiamBound: 9}, opts)
		}},
		{name: "isolator/n=8", rounds: 2326, bits: 467760, resets: 3, hash: 0xa160507f0a87cd8, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return adversary.RunCountingUnderIsolator(8, core.Config{Mode: core.ModeLeader}, opts)
		}},
		{name: "diamspiker/n=10", rounds: 1842, bits: 423904, resets: 3, hash: 0x1963fad03796754d, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.RunAdaptive(adversary.NewDiamSpiker(10), goldenLeaderInputs(10),
				core.Config{Mode: core.ModeLeader}, opts)
		}},
		{name: "fine-grained/shifting-path/n=7", rounds: 780, bits: 112720, resets: 2, hash: 0xf51c9f0ccdbfc45, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.Run(dynnet.NewShiftingPath(7), goldenLeaderInputs(7),
				core.Config{Mode: core.ModeLeader, FineGrainedReset: true}, opts)
		}},
		{name: "blockT=2/n=8", rounds: 1024, bits: 183440, resets: 2, hash: 0x816e5721dd5080c5, run: func(opts core.RunOptions) (*core.RunResult, error) {
			s, err := dynnet.NewUnionConnected(dynnet.NewRandomConnected(8, 0.5, 13), 2)
			if err != nil {
				return nil, err
			}
			return core.Run(s, goldenLeaderInputs(8), core.Config{Mode: core.ModeLeader, BlockT: 2}, opts)
		}},
		{name: "faults-spike/complete/n=6", rounds: 384, bits: 47952, resets: 2, hash: 0xce81fc6016294eab, run: func(opts core.RunOptions) (*core.RunResult, error) {
			return core.Run(spikePlan.Wrap(dynnet.NewStatic(dynnet.Complete(6))), goldenLeaderInputs(6),
				core.Config{Mode: core.ModeLeader}, opts)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, hook := traceHash()
			res, err := c.run(core.RunOptions{Trace: hook})
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			if st.Rounds != c.rounds || st.TotalBits != c.bits || st.Resets != c.resets || h.Sum64() != c.hash {
				t.Errorf("rounds %d, bits %d, resets %d, trace hash %#x; want %d, %d, %d, %#x",
					st.Rounds, st.TotalBits, st.Resets, h.Sum64(), c.rounds, c.bits, c.resets, c.hash)
			}
		})
	}
}
