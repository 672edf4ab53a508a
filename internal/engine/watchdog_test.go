package engine

import (
	"errors"
	"testing"
	"time"

	"anondyn/internal/dynnet"
)

// spinner is a coroutine that never terminates: the canonical wedged
// process the watchdog exists for.
func spinner() Coroutine {
	return CoroutineFunc(func(t *Transport) (any, error) {
		for {
			if _, err := t.SendAndReceive(0); err != nil {
				return nil, err
			}
		}
	})
}

// spinStepper is the stepper-path equivalent of spinner.
type spinStepper struct{}

func (spinStepper) Compose() Message  { return 0 }
func (spinStepper) Deliver([]Message) {}
func (spinStepper) Done() (any, bool) { return nil, false }

func TestWatchdogFiresOnCoroutineRunner(t *testing.T) {
	cfg := Config{
		Schedule:  dynnet.NewStatic(dynnet.Complete(3)),
		MaxRounds: 1 << 30,
		Deadline:  50 * time.Millisecond,
	}
	start := time.Now()
	_, err := Run(cfg, []Coroutine{spinner(), spinner(), spinner()})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	var wderr *WatchdogError
	if !errors.As(err, &wderr) {
		t.Fatalf("error %v is not a *WatchdogError", err)
	}
	if wderr.Limit != cfg.Deadline {
		t.Fatalf("reported limit %v, want %v", wderr.Limit, cfg.Deadline)
	}
	if wderr.Rounds <= 0 {
		t.Fatalf("watchdog fired after %d rounds", wderr.Rounds)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("watchdog took %v to stop the run", elapsed)
	}
}

func TestWatchdogFiresOnStepperPath(t *testing.T) {
	cfg := Config{
		Schedule:  dynnet.NewStatic(dynnet.Complete(3)),
		MaxRounds: 1 << 30,
		Deadline:  50 * time.Millisecond,
	}
	res, err := RunSteppers(cfg, []Stepper{spinStepper{}, spinStepper{}, spinStepper{}})
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("got %v, want ErrWatchdog", err)
	}
	if res == nil || res.Rounds <= 0 {
		t.Fatalf("stepper watchdog returned no partial result: %+v", res)
	}
}

func TestZeroDeadlineNeverFires(t *testing.T) {
	// A terminating run with no deadline must complete normally.
	done := CoroutineFunc(func(t *Transport) (any, error) {
		for r := 0; r < 5; r++ {
			if _, err := t.SendAndReceive(r); err != nil {
				return nil, err
			}
		}
		return "ok", nil
	})
	cfg := Config{Schedule: dynnet.NewStatic(dynnet.Complete(2)), MaxRounds: 100}
	res, err := Run(cfg, []Coroutine{done, done})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
}

func TestWatchdogErrorMessageIsStructured(t *testing.T) {
	err := &WatchdogError{Rounds: 17, Limit: 250 * time.Millisecond}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatal("WatchdogError must unwrap to ErrWatchdog")
	}
	msg := err.Error()
	for _, want := range []string{"watchdog", "250ms", "17"} {
		if !contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
