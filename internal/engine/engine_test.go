package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"anondyn/internal/dynnet"
)

// echoProc sends its PID for `rounds` rounds and returns the sorted list of
// everything it received.
func echoProc(rounds int) Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		var got []int
		for i := 0; i < rounds; i++ {
			msgs, err := t.SendAndReceive(t.PID())
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				v, ok := m.(int)
				if !ok {
					return nil, fmt.Errorf("unexpected message %T", m)
				}
				got = append(got, v)
			}
		}
		sort.Ints(got)
		return got, nil
	})
}

func runEcho(t *testing.T, g *dynnet.Multigraph, rounds int) map[int]any {
	t.Helper()
	n := g.N()
	procs := make([]Coroutine, n)
	for i := range procs {
		procs[i] = echoProc(rounds)
	}
	res, err := Run(Config{Schedule: dynnet.NewStatic(g), MaxRounds: rounds + 1}, procs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Rounds != rounds {
		t.Fatalf("Rounds=%d, want %d", res.Rounds, rounds)
	}
	return res.Outputs
}

func TestDeliveryFollowsLinks(t *testing.T) {
	g := dynnet.NewMultigraph(3)
	g.MustAddLink(0, 1, 1)
	outputs := runEcho(t, g, 1)
	want := map[int][]int{0: {1}, 1: {0}, 2: nil}
	for pid, w := range want {
		got, _ := outputs[pid].([]int)
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("process %d received %v, want %v", pid, got, w)
		}
	}
}

func TestDeliveryMultiplicity(t *testing.T) {
	g := dynnet.NewMultigraph(2)
	g.MustAddLink(0, 1, 3)
	outputs := runEcho(t, g, 1)
	if got := outputs[0].([]int); len(got) != 3 || got[0] != 1 {
		t.Errorf("process 0 received %v, want three copies of 1", got)
	}
	if got := outputs[1].([]int); len(got) != 3 || got[2] != 0 {
		t.Errorf("process 1 received %v, want three copies of 0", got)
	}
}

func TestSelfLoopDeliversOwnMessage(t *testing.T) {
	g := dynnet.NewMultigraph(1)
	g.MustAddLink(0, 0, 2)
	outputs := runEcho(t, g, 1)
	if got := outputs[0].([]int); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("got %v, want two copies of own message", got)
	}
}

func TestRunValidation(t *testing.T) {
	sched := dynnet.NewStatic(dynnet.Path(2))
	procs := []Coroutine{echoProc(1), echoProc(1)}
	tests := []struct {
		name string
		cfg  Config
		pr   []Coroutine
	}{
		{name: "nil-schedule", cfg: Config{MaxRounds: 1}, pr: procs},
		{name: "wrong-proc-count", cfg: Config{Schedule: sched, MaxRounds: 1}, pr: procs[:1]},
		{name: "zero-max-rounds", cfg: Config{Schedule: sched}, pr: procs},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg, tt.pr); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestMaxRoundsCancelsRun(t *testing.T) {
	// Processes that never terminate on their own.
	forever := CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive("tick"); err != nil {
				return nil, err
			}
		}
	})
	res, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 5},
		[]Coroutine{forever, forever})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	if res.Rounds != 5 {
		t.Fatalf("Rounds=%d, want 5", res.Rounds)
	}
}

func TestStopWhenCancelsOthers(t *testing.T) {
	decider := CoroutineFunc(func(tr *Transport) (any, error) {
		for i := 0; i < 3; i++ {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
		return "done", nil
	})
	forever := CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
	})
	res, err := Run(Config{
		Schedule:  dynnet.NewStatic(dynnet.Path(2)),
		MaxRounds: 100,
		StopWhen:  func(out map[int]any) bool { _, ok := out[0]; return ok },
	}, []Coroutine{decider, forever})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Outputs[0] != "done" {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	if _, ok := res.Outputs[1]; ok {
		t.Fatal("cancelled process should have no output")
	}
}

func TestProcessErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	failing := CoroutineFunc(func(tr *Transport) (any, error) {
		if _, err := tr.SendAndReceive(nil); err != nil {
			return nil, err
		}
		return nil, boom
	})
	quiet := CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
	})
	_, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 10},
		[]Coroutine{failing, quiet})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestBitLimitEnforced(t *testing.T) {
	procs := []Coroutine{echoProc(3), echoProc(3)}
	_, err := Run(Config{
		Schedule:  dynnet.NewStatic(dynnet.Path(2)),
		MaxRounds: 10,
		SizeOf:    func(Message) int { return 64 },
		BitLimit:  32,
	}, procs)
	var ble *BitLimitError
	if !errors.As(err, &ble) {
		t.Fatalf("err = %v, want BitLimitError", err)
	}
	if ble.Bits != 64 || ble.Limit != 32 || ble.Round != 1 {
		t.Fatalf("unexpected BitLimitError: %+v", ble)
	}
}

func TestSizeAccounting(t *testing.T) {
	procs := []Coroutine{echoProc(2), echoProc(2)}
	res, err := Run(Config{
		Schedule:  dynnet.NewStatic(dynnet.Path(2)),
		MaxRounds: 10,
		SizeOf: func(m Message) int {
			return 8 + m.(int) // pid-dependent size
		},
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMessages != 4 {
		t.Errorf("TotalMessages=%d, want 4", res.TotalMessages)
	}
	if res.TotalBits != 2*(8+0)+2*(8+1) {
		t.Errorf("TotalBits=%d, want 34", res.TotalBits)
	}
	if res.MaxMessageBits != 9 {
		t.Errorf("MaxMessageBits=%d, want 9", res.MaxMessageBits)
	}
}

func TestEarlyTerminationStopsDelivery(t *testing.T) {
	// Process 1 exits after one round; process 0 must stop hearing from it.
	oneRound := CoroutineFunc(func(tr *Transport) (any, error) {
		if _, err := tr.SendAndReceive("bye"); err != nil {
			return nil, err
		}
		return "gone", nil
	})
	counter := CoroutineFunc(func(tr *Transport) (any, error) {
		heard := 0
		for i := 0; i < 3; i++ {
			msgs, err := tr.SendAndReceive("hi")
			if err != nil {
				return nil, err
			}
			heard += len(msgs)
		}
		return heard, nil
	})
	res, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 10},
		[]Coroutine{counter, oneRound})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 1 {
		t.Fatalf("process 0 heard %v messages, want exactly 1 (round 1 only)", res.Outputs[0])
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (map[int]any, int) {
		procs := make([]Coroutine, 5)
		for i := range procs {
			procs[i] = echoProc(4)
		}
		res, err := Run(Config{Schedule: dynnet.NewRandomConnected(5, 0.5, 7), MaxRounds: 10}, procs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Outputs, res.Rounds
	}
	out1, r1 := run()
	out2, r2 := run()
	if r1 != r2 || fmt.Sprint(out1) != fmt.Sprint(out2) {
		t.Fatalf("runs differ: %v (%d rounds) vs %v (%d rounds)", out1, r1, out2, r2)
	}
}

func TestTraceObservesEveryRound(t *testing.T) {
	var rounds []int
	var counts []int
	procs := []Coroutine{echoProc(3), echoProc(3), echoProc(3)}
	_, err := Run(Config{
		Schedule:  dynnet.NewStatic(dynnet.Cycle(3)),
		MaxRounds: 10,
		Trace: func(round int, sent []Message) {
			rounds = append(rounds, round)
			counts = append(counts, len(sent))
		},
	}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rounds) != "[1 2 3]" {
		t.Fatalf("traced rounds %v", rounds)
	}
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("round %d traced %d messages, want 3", i+1, c)
		}
	}
}

func TestScheduleSizeMismatchFails(t *testing.T) {
	bad := dynnet.NewFunc(2, func(t int) *dynnet.Multigraph {
		if t == 2 {
			return dynnet.Path(3) // wrong size mid-run
		}
		return dynnet.Path(2)
	})
	_, err := Run(Config{Schedule: bad, MaxRounds: 10},
		[]Coroutine{echoProc(5), echoProc(5)})
	if err == nil {
		t.Fatal("expected error for schedule size mismatch")
	}
}

func TestZeroProcesses(t *testing.T) {
	res, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.NewMultigraph(0)), MaxRounds: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || len(res.Outputs) != 0 {
		t.Fatalf("unexpected result %+v", res)
	}
}

// quietProc sends a constant small int (boxed allocation-free by the
// runtime's small-int cache) and discards everything it receives, so any
// allocation measured during its rounds belongs to the runner, not the
// protocol.
func quietProc(rounds int) Coroutine {
	return CoroutineFunc(func(tr *Transport) (any, error) {
		for i := 0; i < rounds; i++ {
			if _, err := tr.SendAndReceive(7); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
}

// TestSchedulerSteadyStateAllocs gates per-round allocations: once the
// router's double-buffered delivery backings have grown to the round's
// working set, additional rounds must be allocation-free. The gate is the
// *difference* between a long and a short run, so per-run setup (runner,
// coroutines) cancels out.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	const extra = 100
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			procs := make([]Coroutine, 8)
			for pid := range procs {
				procs[pid] = quietProc(rounds)
			}
			cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(8)), MaxRounds: rounds + 1}
			if _, err := Run(cfg, procs); err != nil {
				t.Error(err)
			}
		})
	}
	short := measure(10)
	long := measure(10 + extra)
	if perRound := (long - short) / extra; perRound > 0.5 {
		t.Errorf("%.2f allocs per steady-state round (short=%.0f long=%.0f), want ~0",
			perRound, short, long)
	}
}

// TestProcessPanicReturnsPanicError pins panic containment: a process that
// panics mid-run, before its first round, or while being unwound fails the
// run with a *PanicError carrying its pid, the completed rounds and the
// panic value, the partial Result comes back, and no goroutine outlives the
// run.
func TestProcessPanicReturnsPanicError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	forever := CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
	})
	panicAt := func(round int) Coroutine {
		return CoroutineFunc(func(tr *Transport) (any, error) {
			for tr.Round() < round {
				if _, err := tr.SendAndReceive(nil); err != nil {
					return nil, err
				}
			}
			panic("boom")
		})
	}
	twoRounds := CoroutineFunc(func(tr *Transport) (any, error) {
		for tr.Round() < 2 {
			if _, err := tr.SendAndReceive(nil); err != nil {
				return nil, err
			}
		}
		return "done", nil
	})
	panicOnStop := CoroutineFunc(func(tr *Transport) (any, error) {
		for {
			if _, err := tr.SendAndReceive(nil); err != nil {
				panic(err)
			}
		}
	})
	cases := []struct {
		name             string
		procs            []Coroutine
		pid, rounds      int
		value            any
		stopWhenProcess0 bool
	}{
		{name: "mid-run", procs: []Coroutine{forever, forever, panicAt(3), forever}, pid: 2, rounds: 3, value: "boom"},
		{name: "first-resume", procs: []Coroutine{forever, panicAt(0), forever, forever}, pid: 1, rounds: 0, value: "boom"},
		{name: "unwind", procs: []Coroutine{twoRounds, panicOnStop, forever, forever}, pid: 1, rounds: 2,
			value: ErrStopped, stopWhenProcess0: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(4)), MaxRounds: 100}
				if c.stopWhenProcess0 {
					cfg.StopWhen = func(out map[int]any) bool { _, ok := out[0]; return ok }
				}
				res, err := Run(cfg, c.procs)
				var pe *PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want *PanicError", err)
				}
				if pe.PID != c.pid || pe.Round != c.rounds || pe.Value != c.value || len(pe.Stack) == 0 {
					t.Fatalf("PanicError{PID: %d, Round: %d, Value: %v, %d stack bytes}, want pid %d, round %d, value %v",
						pe.PID, pe.Round, pe.Value, len(pe.Stack), c.pid, c.rounds, c.value)
				}
				if res == nil || res.Rounds != c.rounds {
					t.Fatalf("partial result %+v, want %d rounds", res, c.rounds)
				}
			}
		})
	}
	waitForGoroutines(t, baseline)
}
