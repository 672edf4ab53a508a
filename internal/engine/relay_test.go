package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

func intHigher(a, b Message) bool { return a.(int) > b.(int) }

// relayForever relays msg until the run stops it.
func relayForever(msg int) Coroutine {
	return CoroutineFunc(func(tr *Transport) (any, error) {
		_, err := tr.Relay(msg, math.MaxInt, 1, nil)
		return nil, err
	})
}

// TestRelayFoldsAndCountsRounds checks a relay's result and round count on
// the static path 0–1–2–3–4 holding 0, 1, 2, 3, 9: the maximum crosses one
// hop per published block, so two rounds in one block of 2 spread it no
// further than one round, and Round advances by every relayed round.
func TestRelayFoldsAndCountsRounds(t *testing.T) {
	for _, c := range []struct {
		blocks, block int
		want          []any // held value per process at the end
	}{
		{blocks: 1, block: 1, want: []any{1, 2, 3, 9, 9}},
		{blocks: 2, block: 1, want: []any{2, 3, 9, 9, 9}},
		{blocks: 1, block: 2, want: []any{1, 2, 3, 9, 9}},
		{blocks: 0, block: 1, want: []any{0, 1, 2, 3, 9}},
	} {
		procs := make([]Coroutine, 5)
		for pid := range procs {
			msg := pid
			if pid == 4 {
				msg = 9
			}
			procs[pid] = CoroutineFunc(func(tr *Transport) (any, error) {
				top, err := tr.Relay(msg, c.blocks, c.block, nil)
				if err != nil {
					return nil, err
				}
				if tr.Round() != c.blocks*c.block {
					t.Errorf("Round() = %d after %d×%d relayed rounds", tr.Round(), c.blocks, c.block)
				}
				return top, nil
			})
		}
		res, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(5)), MaxRounds: 10, Higher: intHigher}, procs)
		if err != nil {
			t.Fatal(err)
		}
		for pid, w := range c.want {
			if res.Outputs[pid] != w {
				t.Errorf("blocks=%d block=%d: process %d holds %v, want %v (outputs %v)",
					c.blocks, c.block, pid, res.Outputs[pid], w, res.Outputs)
			}
		}
		if res.Rounds != c.blocks*c.block {
			t.Errorf("blocks=%d block=%d: %d rounds", c.blocks, c.block, res.Rounds)
		}
	}
}

// TestRelayValidation pins the misuse errors: a block length below 1 and a
// run without Config.Higher fail the process with a typed message.
func TestRelayValidation(t *testing.T) {
	for _, c := range []struct {
		name   string
		higher func(a, b Message) bool
		block  int
	}{
		{name: "block=0", higher: intHigher, block: 0},
		{name: "nil-higher", block: 1},
	} {
		proc := CoroutineFunc(func(tr *Transport) (any, error) {
			return tr.Relay(1, 3, c.block, nil)
		})
		_, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(1)), MaxRounds: 10, Higher: c.higher},
			[]Coroutine{proc})
		if err == nil {
			t.Errorf("%s: run succeeded, want an error", c.name)
		}
	}
}

// TestRelayLifecycle covers the run-ending paths while processes are parked
// in Relay: StopWhen, MaxRounds, context cancellation, the watchdog and a
// panicking process. Each must end the run at the right round with the
// right error and release every parked process.
func TestRelayLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	path := func() dynnet.Schedule { return dynnet.NewStatic(dynnet.Path(4)) }
	threeRounds := CoroutineFunc(func(tr *Transport) (any, error) {
		if _, err := tr.Relay(5, 3, 1, nil); err != nil {
			return nil, err
		}
		return "done", nil
	})
	panicAt3 := CoroutineFunc(func(tr *Transport) (any, error) {
		if _, err := tr.Relay(5, 3, 1, nil); err != nil {
			return nil, err
		}
		panic("boom")
	})

	cases := []struct {
		name   string
		cfg    Config
		ctx    func() (context.Context, context.CancelFunc)
		procs  []Coroutine
		rounds int // -1: not checked
		check  func(err error) bool
	}{
		{
			name: "stop-when",
			cfg: Config{Schedule: path(), MaxRounds: 100,
				StopWhen: func(out map[int]any) bool { _, ok := out[0]; return ok }},
			procs:  []Coroutine{threeRounds, relayForever(1), relayForever(2), relayForever(3)},
			rounds: 3,
			check:  func(err error) bool { return err == nil },
		},
		{
			name:   "max-rounds",
			cfg:    Config{Schedule: path(), MaxRounds: 7},
			procs:  []Coroutine{relayForever(0), relayForever(1), relayForever(2), relayForever(3)},
			rounds: 7,
			check:  func(err error) bool { return errors.Is(err, ErrMaxRounds) },
		},
		{
			name:   "panic",
			cfg:    Config{Schedule: path(), MaxRounds: 100},
			procs:  []Coroutine{relayForever(0), relayForever(1), panicAt3, relayForever(3)},
			rounds: 3,
			check: func(err error) bool {
				var pe *PanicError
				return errors.As(err, &pe) && pe.PID == 2 && pe.Round == 3 && pe.Value == "boom"
			},
		},
		{
			name:   "watchdog",
			cfg:    Config{Schedule: path(), MaxRounds: math.MaxInt, Deadline: 20 * time.Millisecond},
			procs:  []Coroutine{relayForever(0), relayForever(1), relayForever(2), relayForever(3)},
			rounds: -1,
			check:  func(err error) bool { return errors.Is(err, ErrWatchdog) },
		},
		{
			name: "context-cancel",
			cfg:  Config{Schedule: path(), MaxRounds: math.MaxInt},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 20*time.Millisecond)
			},
			procs:  []Coroutine{relayForever(0), relayForever(1), relayForever(2), relayForever(3)},
			rounds: -1,
			check:  func(err error) bool { return errors.Is(err, context.DeadlineExceeded) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for i := 0; i < 3; i++ {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if c.ctx != nil {
					ctx, cancel = c.ctx()
				}
				cfg := c.cfg
				cfg.Higher = intHigher
				res, err := RunContext(ctx, cfg, c.procs)
				cancel()
				if !c.check(err) {
					t.Fatalf("err = %v", err)
				}
				if c.rounds >= 0 && res.Rounds != c.rounds {
					t.Fatalf("%d rounds, want %d", res.Rounds, c.rounds)
				}
			}
		})
	}
	waitForGoroutines(t, baseline)
}
