package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"anondyn/internal/dynnet"
)

// The runner equivalence contract: the coroutine runner (Run) and the
// zero-synchronization lock-step witness (RunSteppers,
// stepper_witness_test.go) must produce byte-identical Results (Rounds,
// Outputs, MaxMessageBits, TotalMessages, TotalBits) and identical Trace
// streams for the same deterministic protocol, because they share the
// routing core and differ only in how control moves between the processes
// and the round barrier.

// mixedProc is a deterministic protocol with per-process lifetimes: process
// pid runs base+pid%3 rounds, sends pid*1000+round, and returns the ordered
// checksum of everything it received. mixedSteppers is the same protocol as
// state machines.
func mixedProc(pid, base int) Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		rounds := base + pid%3
		sum := 0
		for i := 0; i < rounds; i++ {
			msgs, err := t.SendAndReceive(pid*1000 + i)
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				sum = sum*31 + m.(int)
			}
		}
		return sum, nil
	})
}

// rotPathAdaptive is a reactive test adversary: each round it links the
// still-sending processes into a path whose order rotates with the round,
// so the graph genuinely depends on both the round and the sent slice.
type rotPathAdaptive struct{ n int }

func (a rotPathAdaptive) N() int { return a.n }

func (a rotPathAdaptive) Graph(round int, sent []Message) *dynnet.Multigraph {
	g := dynnet.NewMultigraph(a.n)
	var active []int
	for pid, m := range sent {
		if m != nil {
			active = append(active, pid)
		}
	}
	for i := 1; i < len(active); i++ {
		u := active[(i-1+round)%len(active)]
		v := active[(i+round)%len(active)]
		if u != v {
			g.MustAddLink(u, v, 1)
		}
	}
	return g
}

// captureTrace returns a Trace hook appending each round's sent messages
// (copied) to the returned log.
func captureTrace() (*[]string, func(round int, sent []Message)) {
	log := &[]string{}
	return log, func(round int, sent []Message) {
		*log = append(*log, fmt.Sprintf("%d:%v", round, sent))
	}
}

func mixedSteppers(n, base int) []Stepper {
	st := make([]Stepper, n)
	for pid := range st {
		st[pid] = &countStepper{pid: pid, rounds: base + pid%3}
	}
	return st
}

// sizeMixed is the SizeOf both runs of an equivalence case bill with.
func sizeMixed(m Message) int { return m.(int)%13 + 3 }

// runBoth executes the mixed-lifetime protocol on n processes as coroutines
// on Run and as steppers on the RunSteppers witness, and fails unless the
// two runs are identical. It returns the coroutine run's result.
func runBoth(t *testing.T, cfg func() Config, n, base int) *Result {
	t.Helper()
	wcfg := cfg()
	wlog, whook := captureTrace()
	wcfg.Trace, wcfg.SizeOf = whook, sizeMixed
	want, werr := RunSteppers(wcfg, mixedSteppers(n, base))

	rcfg := cfg()
	log, hook := captureTrace()
	rcfg.Trace, rcfg.SizeOf = hook, sizeMixed
	procs := make([]Coroutine, n)
	for pid := range procs {
		procs[pid] = mixedProc(pid, base)
	}
	got, err := Run(rcfg, procs)
	if err != nil || werr != nil {
		t.Fatalf("Run: %v; RunSteppers: %v", err, werr)
	}
	assertSameRun(t, want, got, *wlog, *log)
	return got
}

// assertSameRun fails unless the witness run and the runner's run are
// byte-identical in every Result field and in their trace streams.
func assertSameRun(t *testing.T, want, got *Result, wantTrace, gotTrace []string) {
	t.Helper()
	if want.Rounds != got.Rounds {
		t.Errorf("Rounds: witness %d, runner %d", want.Rounds, got.Rounds)
	}
	if !reflect.DeepEqual(want.Outputs, got.Outputs) {
		t.Errorf("Outputs differ:\nwitness %v\nrunner  %v", want.Outputs, got.Outputs)
	}
	if want.MaxMessageBits != got.MaxMessageBits {
		t.Errorf("MaxMessageBits: witness %d, runner %d", want.MaxMessageBits, got.MaxMessageBits)
	}
	if want.TotalMessages != got.TotalMessages {
		t.Errorf("TotalMessages: witness %d, runner %d", want.TotalMessages, got.TotalMessages)
	}
	if want.TotalBits != got.TotalBits {
		t.Errorf("TotalBits: witness %d, runner %d", want.TotalBits, got.TotalBits)
	}
	if !reflect.DeepEqual(wantTrace, gotTrace) {
		t.Errorf("Trace streams differ:\nwitness %v\nrunner  %v", wantTrace, gotTrace)
	}
}

// TestSchedulerEquivalence sweeps n × schedule family × seed and asserts
// the equivalence contract on full-completion runs.
func TestSchedulerEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		for _, seed := range []int64{1, 7} {
			families := []struct {
				name string
				cfg  func() Config
			}{
				{name: "static-cycle", cfg: func() Config {
					return Config{Schedule: dynnet.NewStatic(dynnet.Cycle(n))}
				}},
				{name: "static-complete", cfg: func() Config {
					return Config{Schedule: dynnet.NewStatic(dynnet.Complete(n))}
				}},
				{name: "random-connected", cfg: func() Config {
					return Config{Schedule: dynnet.NewRandomConnected(n, 0.4, seed)}
				}},
				{name: "adaptive-rotating-path", cfg: func() Config {
					return Config{Adaptive: rotPathAdaptive{n: n}}
				}},
			}
			for _, fam := range families {
				name := fmt.Sprintf("%s/n=%d/seed=%d", fam.name, n, seed)
				t.Run(name, func(t *testing.T) {
					runBoth(t, func() Config {
						cfg := fam.cfg()
						cfg.MaxRounds = 100
						return cfg
					}, n, 3+int(seed))
				})
			}
		}
	}
}

// TestSchedulerEquivalenceStopWhen pins the StopWhen semantics: process 0
// finishes after three rounds, the rest would run forever, and the run must
// stop with exactly process 0's output.
func TestSchedulerEquivalenceStopWhen(t *testing.T) {
	const n = 4
	build := func() []Stepper {
		st := make([]Stepper, n)
		for pid := range st {
			st[pid] = &countStepper{pid: pid, rounds: 1 << 30}
		}
		st[0] = &countStepper{rounds: 3}
		return st
	}
	cfg := func(hook func(int, []Message)) Config {
		return Config{
			Schedule:  dynnet.NewStatic(dynnet.Complete(n)),
			MaxRounds: 100,
			Trace:     hook,
			StopWhen:  func(out map[int]any) bool { _, ok := out[0]; return ok },
		}
	}
	wlog, whook := captureTrace()
	want, err := RunSteppers(cfg(whook), build())
	if err != nil {
		t.Fatalf("RunSteppers: %v", err)
	}
	log, hook := captureTrace()
	got, err := Run(cfg(hook), fromSteppers(build()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got.Outputs) != 1 || got.Rounds != 3 {
		t.Fatalf("outputs %v after %d rounds, want only process 0 after 3", got.Outputs, got.Rounds)
	}
	assertSameRun(t, want, got, *wlog, *log)
}

// limitStepper sends 8-bit messages forever, except that process 1 sends
// 100 bits in round 4.
type limitStepper struct{ pid, step int }

func (s *limitStepper) Compose() Message {
	if s.pid == 1 && s.step == 3 {
		return 100
	}
	return 8
}
func (s *limitStepper) Deliver([]Message) { s.step++ }
func (s *limitStepper) Done() (any, bool) { return nil, false }

// TestSchedulerEquivalenceBitLimit pins the BitLimit semantics: the first
// violating (round, process, bits) is the same on the runner and the
// witness because accounting happens in the shared router.
func TestSchedulerEquivalenceBitLimit(t *testing.T) {
	const n = 3
	build := func() []Stepper {
		st := make([]Stepper, n)
		for pid := range st {
			st[pid] = &limitStepper{pid: pid}
		}
		return st
	}
	cfg := Config{
		Schedule:  dynnet.NewStatic(dynnet.Cycle(n)),
		MaxRounds: 100,
		SizeOf:    func(m Message) int { return m.(int) },
		BitLimit:  50,
	}
	var want, got *BitLimitError
	if _, err := RunSteppers(cfg, build()); !errors.As(err, &want) {
		t.Fatalf("RunSteppers: err=%v, want *BitLimitError", err)
	}
	if _, err := Run(cfg, fromSteppers(build())); !errors.As(err, &got) {
		t.Fatalf("Run: err=%v, want *BitLimitError", err)
	}
	if *got != *want {
		t.Errorf("BitLimitError differs: witness %+v, runner %+v", want, got)
	}
	if got.Round != 4 || got.Process != 1 || got.Bits != 100 {
		t.Errorf("unexpected violation %+v", got)
	}
}

// TestSchedulerEquivalencePreCancelled pins the cancellation contract the
// runner and the witness share: a context cancelled before the run starts
// fails with context.Canceled and zero rounds.
func TestSchedulerEquivalencePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 10}
	res, err := RunContext(ctx, cfg, []Coroutine{echoProc(3), echoProc(3)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: err=%v, want context.Canceled", err)
	}
	if res.Rounds != 0 || len(res.Outputs) != 0 {
		t.Fatalf("Run: partial result %+v, want empty", res)
	}
	res, err = RunSteppersContext(ctx, cfg, mixedSteppers(2, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunSteppers: err=%v, want context.Canceled", err)
	}
	if res.Rounds != 0 || len(res.Outputs) != 0 {
		t.Fatalf("RunSteppers: partial result %+v, want empty", res)
	}
}

// fromSteppers wraps each stepper with FromStepper.
func fromSteppers(st []Stepper) []Coroutine {
	procs := make([]Coroutine, len(st))
	for pid := range procs {
		procs[pid] = FromStepper(st[pid])
	}
	return procs
}

// countStepper is a deterministic state machine: it broadcasts
// pid*1000+step for `rounds` steps, then outputs a checksum of everything
// received.
type countStepper struct {
	pid, rounds, step int
	sum               int
}

func (c *countStepper) Compose() Message { return c.pid*1000 + c.step }

func (c *countStepper) Deliver(msgs []Message) {
	for _, m := range msgs {
		c.sum = c.sum*31 + m.(int)
	}
	c.step++
}

func (c *countStepper) Done() (any, bool) {
	if c.step >= c.rounds {
		return c.sum, true
	}
	return nil, false
}

// TestStepperPathsEquivalent runs the same stepper protocol through
// FromStepper on Run and on the RunSteppers witness and asserts identical
// results and traces.
func TestStepperPathsEquivalent(t *testing.T) {
	const n = 6
	cfg := func(hook func(int, []Message)) Config {
		return Config{
			Schedule:  dynnet.NewRandomConnected(n, 0.4, 3),
			MaxRounds: 50,
			SizeOf:    sizeMixed,
			Trace:     hook,
		}
	}
	wlog, whook := captureTrace()
	want, err := RunSteppers(cfg(whook), mixedSteppers(n, 4))
	if err != nil {
		t.Fatalf("RunSteppers: %v", err)
	}
	log, hook := captureTrace()
	got, err := Run(cfg(hook), fromSteppers(mixedSteppers(n, 4)))
	if err != nil {
		t.Fatalf("FromStepper on Run: %v", err)
	}
	assertSameRun(t, want, got, *wlog, *log)
}

// TestRunSteppersCancellation checks the RunSteppers cancellation contract:
// pre-cancelled contexts stop before round 1, and a cancellation mid-run is
// observed at the next round boundary with the partial result preserved.
func TestRunSteppersCancellation(t *testing.T) {
	const n = 3
	build := func(rounds int) []Stepper {
		st := make([]Stepper, n)
		for pid := range st {
			st[pid] = &countStepper{pid: pid, rounds: rounds}
		}
		return st
	}
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Cycle(n)), MaxRounds: 1000}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunSteppersContext(ctx, cfg, build(10))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err=%v, want context.Canceled", err)
	}
	if res.Rounds != 0 {
		t.Fatalf("pre-cancelled: Rounds=%d, want 0", res.Rounds)
	}

	// Cancel from inside the Trace hook: the loop must finish the current
	// round, then stop at the boundary.
	ctx, cancel = context.WithCancel(context.Background())
	stopAt := 5
	cfg2 := cfg
	cfg2.Trace = func(round int, sent []Message) {
		if round == stopAt {
			cancel()
		}
	}
	res, err = RunSteppersContext(ctx, cfg2, build(1000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run: err=%v, want context.Canceled", err)
	}
	if res.Rounds != stopAt {
		t.Fatalf("mid-run: Rounds=%d, want %d", res.Rounds, stopAt)
	}
}
