package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"anondyn/internal/check"
	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
	"anondyn/internal/historytree"
	"anondyn/internal/linear"
)

// runDeadline arms the engine watchdog so that a wedged run is counted as
// a failure well inside the benchmark's 180-second budget per process.
const runDeadline = 120 * time.Second

// workload is one input family of the benchmark. The sizes are chosen so
// that a different layer dominates each workload (see LEDGER.md).
type workload struct {
	name   string
	linear bool // linear.Run instead of core.Run
	n      int
	// batch is the number of distinct run specs derived from the workload
	// seed. Runs cycle through them, so each spec also runs repeatedly and
	// repeats must agree exactly.
	batch int
	// build derives the batch of run specs on n processes from the seed.
	build func(seed uint64, n, batch int) []spec
}

// spec is one deterministic run input: a schedule and the per-process
// inputs, with the seed it was derived from.
type spec struct {
	seed   uint64
	sched  dynnet.InPlaceSchedule
	inputs []historytree.Input
}

var workloads = []workload{
	{name: "congested-dense", n: 96, batch: 32, build: randomSpecs},
	{name: "congested-deep", n: 48, batch: 1, build: pathSpecs},
	{name: "linear-dense", linear: true, n: 48, batch: 3, build: randomSpecs},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// density is the extra-edge probability of the random adversary, the
// default topology of cadn and of service.JobSpec.
const density = 0.3

// deriveSeed is splitmix64 over (seed, i): per-run seeds that differ in
// every bit for neighbouring workload seeds.
func deriveSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// leaderInputs is the production input vector of a leader-mode job with
// no input values: process 0 is the leader, the rest carry the zero input.
func leaderInputs(n int) []historytree.Input {
	in := make([]historytree.Input, n)
	in[0].Leader = true
	return in
}

// randomSpecs derives batch random connected schedules (p = density).
func randomSpecs(seed uint64, n, batch int) []spec {
	out := make([]spec, batch)
	for i := range out {
		s := deriveSeed(seed, i)
		out[i] = spec{
			seed:   s,
			sched:  dynnet.NewRandomConnected(n, density, int64(s)),
			inputs: leaderInputs(n),
		}
	}
	return out
}

// pathSpecs derives static paths whose non-leader processes are relabelled
// by a seeded permutation while the leader (process 0) stays at an end.
// Relabelling an anonymous network changes the engine's input but not the
// run: the round count is the same for every seed.
func pathSpecs(seed uint64, n, batch int) []spec {
	out := make([]spec, batch)
	for i := range out {
		s := deriveSeed(seed, i)
		order := make([]int, n)
		for k := range order {
			order[k] = k
		}
		rng := rand.New(rand.NewPCG(s, 0))
		rng.Shuffle(n-1, func(a, b int) { order[a+1], order[b+1] = order[b+1], order[a+1] })
		g := dynnet.NewMultigraph(n)
		for k := 0; k+1 < n; k++ {
			g.MustAddLink(order[k], order[k+1], 1)
		}
		out[i] = spec{seed: s, sched: dynnet.NewStatic(g), inputs: leaderInputs(n)}
	}
	return out
}

// run executes one production-default job: the sequential scheduler,
// modular arithmetic, the shared VHT, leader mode and MaxLevels = 3n+8,
// as service.JobSpec derives them for a job with no input values.
func (w workload) run(s dynnet.Schedule, inputs []historytree.Input, trace func(int, []engine.Message)) (*core.RunResult, error) {
	n := len(inputs)
	opts := core.RunOptions{Deadline: runDeadline, Trace: trace}
	if w.linear {
		return linear.Run(s, inputs, linear.Config{Mode: core.ModeLeader, BlockT: 1, MaxLevels: 3*n + 8}, opts)
	}
	return core.Run(s, inputs, core.Config{Mode: core.ModeLeader, BlockT: 1, MaxLevels: 3*n + 8}, opts)
}

// outcome is what two runs of one spec must agree on.
type outcome struct {
	n        int
	rounds   int
	levels   int
	msgs     int64
	bits     int64
	maxBits  int
	multiset string
}

func outcomeOf(res *core.RunResult) outcome {
	return outcome{
		n:        res.N,
		rounds:   res.Stats.Rounds,
		levels:   res.Stats.Levels,
		msgs:     res.Stats.TotalMessages,
		bits:     res.Stats.TotalBits,
		maxBits:  res.Stats.MaxMessageBits,
		multiset: fmt.Sprint(res.Multiset),
	}
}

// verify checks a run against ground truth: the count and multiset
// implied by the inputs.
func verify(sp spec, res *core.RunResult, err error) error {
	if err != nil {
		return err
	}
	return check.VerifyAnswer(sp.inputs, res)
}
