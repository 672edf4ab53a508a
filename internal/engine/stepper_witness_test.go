package engine

import (
	"context"
	"fmt"
)

// RunSteppers executes one Stepper per process in a direct function-call
// round loop: Done → Compose → route → Deliver, with zero synchronization
// — no coroutines, goroutines or channels anywhere on the path. It is the
// lock-step witness for the coroutine runner: the round semantics
// (barriers, delivery order, accounting, StopWhen, MaxRounds, BitLimit,
// Trace) must be identical to running FromStepper(s) on Run.
func RunSteppers(cfg Config, steppers []Stepper) (*Result, error) {
	return RunSteppersContext(context.Background(), cfg, steppers)
}

// RunSteppersContext is RunSteppers with external cancellation, observed at
// round boundaries: when ctx is cancelled the loop stops before the next
// round and returns the partial Result alongside an error wrapping ctx's
// cause.
func RunSteppersContext(ctx context.Context, cfg Config, steppers []Stepper) (*Result, error) {
	n, err := cfg.validate(len(steppers))
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	rt := newRouter(&cfg, n)
	wd := newWatchdog(cfg.Deadline)
	state := make([]procState, n)
	pending := make([]Message, n)
	res := &Result{Outputs: make(map[int]any)}
	alive := n
	for pid := range steppers {
		state[pid] = stateRunning
	}

	for {
		if err := ctx.Err(); err != nil {
			res.Rounds = rt.round
			return res, fmt.Errorf("engine: run cancelled: %w", context.Cause(ctx))
		}
		if err := wd.check(rt.round); err != nil {
			res.Rounds = rt.round
			return res, err
		}
		// Done is checked before every round (the FromStepper contract), so
		// a stepper that is done immediately never communicates.
		for pid, st := range steppers {
			if state[pid] == stateDone {
				continue
			}
			if out, done := st.Done(); done {
				state[pid] = stateDone
				alive--
				res.Outputs[pid] = out
				if cfg.StopWhen != nil && cfg.StopWhen(res.Outputs) {
					res.Rounds = rt.round
					return res, nil
				}
			}
		}
		if alive == 0 {
			break
		}
		for pid, st := range steppers {
			if state[pid] != stateDone {
				state[pid] = stateWaiting
				pending[pid] = st.Compose()
				rt.bits[pid] = -1
			}
		}
		out, err := rt.route(state, pending, nil, res)
		if err != nil {
			res.Rounds = rt.round
			return res, err
		}
		for pid, st := range steppers {
			if state[pid] == stateWaiting {
				state[pid] = stateRunning
				st.Deliver(out[pid])
			}
		}
		if cfg.StopWhen != nil && cfg.StopWhen(res.Outputs) {
			break
		}
		if rt.round >= cfg.MaxRounds {
			res.Rounds = rt.round
			return res, ErrMaxRounds
		}
	}
	res.Rounds = rt.round
	return res, nil
}
