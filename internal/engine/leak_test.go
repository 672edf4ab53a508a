package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// TestNoGoroutineLeaks verifies that Run releases every process coroutine
// before returning — under normal completion, early stop, round-budget and
// context cancellation alike.
func TestNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	runs := []struct {
		name string
		do   func() error
	}{
		{name: "normal", do: func() error {
			_, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Cycle(4)), MaxRounds: 10},
				[]Coroutine{echoProc(3), echoProc(3), echoProc(3), echoProc(3)})
			return err
		}},
		{name: "stop-when", do: func() error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			twoRounds := CoroutineFunc(func(tr *Transport) (any, error) {
				for i := 0; i < 2; i++ {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
				return "done", nil
			})
			_, err := Run(Config{
				Schedule:  dynnet.NewStatic(dynnet.Path(3)),
				MaxRounds: 100,
				StopWhen:  func(out map[int]any) bool { _, ok := out[0]; return ok },
			}, []Coroutine{twoRounds, forever, forever})
			return err
		}},
		{name: "max-rounds", do: func() error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			_, err := Run(Config{Schedule: dynnet.NewStatic(dynnet.Path(2)), MaxRounds: 3},
				[]Coroutine{forever, forever})
			if err == nil {
				return nil
			}
			return nil // ErrMaxRounds expected
		}},
		{name: "context-cancel-pre-cancelled", do: func() error {
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := RunContext(ctx, Config{Schedule: dynnet.NewStatic(dynnet.Path(3)), MaxRounds: 1 << 20},
				[]Coroutine{forever, forever, forever})
			if !errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		}},
		{name: "context-cancel-mid-round", do: func() error {
			// One process stalls before submitting its round-4 message, so
			// the runner is blocked inside it when the cancellation lands —
			// the cancel path must release both the submitted processes
			// (parked on the round barrier) and, once the straggler wakes,
			// the straggler itself.
			release := make(chan struct{})
			straggler := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if tr.Round() == 3 {
						<-release
					}
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			forever := CoroutineFunc(func(tr *Transport) (any, error) {
				for {
					if _, err := tr.SendAndReceive(nil); err != nil {
						return nil, err
					}
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, Config{Schedule: dynnet.NewStatic(dynnet.Cycle(3)), MaxRounds: 1 << 20},
					[]Coroutine{straggler, forever, forever})
				done <- err
			}()
			time.Sleep(5 * time.Millisecond) // let the run reach round 4 and park
			cancel()
			close(release)
			err := <-done
			if !errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		}},
	}
	for _, r := range runs {
		for i := 0; i < 5; i++ {
			if err := r.do(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
	}
	waitForGoroutines(t, baseline)
}

// waitForGoroutines fails the test unless the goroutine count settles back
// to within two of baseline (runtime and testing stragglers) in time.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
