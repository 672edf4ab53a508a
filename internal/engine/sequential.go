package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// seqDone records a returned process: its output, its error, and the fact
// that the coroutine function actually completed (as opposed to never having
// been resumed to completion).
type seqDone struct {
	output   any
	err      error
	finished bool
}

// stepResult classifies what happened after the runner resumed one process.
type stepResult int

const (
	// stepParked: the process submitted a message and is parked awaiting
	// delivery.
	stepParked stepResult = iota
	// stepDone: the process returned; the round can keep going.
	stepDone
	// stepStop: stop condition or error; leave the round loop.
	stepStop
)

// seqRunner is the engine's round runner. Each process runs as a pull
// coroutine (iter.Pull): the runner resumes it with a direct coroutine
// switch, the process runs until its next SendAndReceive submission and
// switches straight back. The switch is the runtime's coroutine handoff —
// no channel, no scheduler queueing, no goroutine ready/park transitions — so
// the per-round cost is the protocol's own work plus the shared routing;
// profiling the counting simulation showed the former channel-based handoff
// spending over a quarter of total CPU inside the runtime scheduler.
//
// The strict control-transfer discipline is also the memory model: every
// shared field (state, pending, inbox, counters) is only touched by the
// currently running coroutine, and each switch orders the writes for the
// next one (iter.Pull guarantees the iterator and its caller never run
// concurrently).
type seqRunner struct {
	cfg     Config
	ctx     context.Context
	wd      watchdog
	n       int
	rt      *router
	state   []procState
	pending []Message

	// Per-process pull coroutine: next resumes the process until its next
	// submission (or return), stop unwinds it, yield is the process side of
	// the switch (captured by the coroutine body on first resume), inbox is
	// the delivery slot the runner fills before resuming, and done the
	// output slot the coroutine body fills before returning.
	next  []func() (struct{}, bool)
	stop  []func()
	yield []func(struct{}) bool
	inbox [][]Message
	done  []seqDone

	// alive counts processes that have not returned; it is maintained
	// incrementally (no census scans).
	alive int

	// stopping is set by the runner before the unwind begins, so a
	// non-conforming coroutine that keeps calling SendAndReceive after
	// ErrStopped fails fast instead of blocking on a dead round.
	stopping bool

	runErr error
}

// sendAndReceive is Transport.SendAndReceive: record the submission, switch
// control back to the runner, and continue once the runner has filled the
// inbox slot and resumed this process.
func (s *seqRunner) sendAndReceive(t *Transport, msg Message) ([]Message, error) {
	if s.stopping {
		return nil, ErrStopped
	}
	s.state[t.pid] = stateWaiting
	s.pending[t.pid] = msg
	if !s.yield[t.pid](struct{}{}) {
		// The runner called stop: unwind.
		return nil, ErrStopped
	}
	t.round++
	return s.inbox[t.pid], nil
}

// startProc creates the pull coroutine for one process. The body captures
// its yield function before running the protocol, so sendAndReceive can
// switch back to the runner. Every resume and stop switch runs the process
// inside this body, so its recover turns a panic anywhere in the protocol
// into a *PanicError result instead of a crash in the runner's goroutine.
func (s *seqRunner) startProc(pid int, proc Coroutine) {
	tr := &Transport{pid: pid, run: s}
	s.next[pid], s.stop[pid] = iter.Pull(func(yield func(struct{}) bool) {
		s.yield[pid] = yield
		defer func() {
			if v := recover(); v != nil {
				pe := &PanicError{PID: pid, Round: s.rt.round, Value: v, Stack: debug.Stack()}
				s.done[pid] = seqDone{err: pe, finished: true}
			}
		}()
		out, err := proc.Run(tr)
		s.done[pid] = seqDone{output: out, err: err, finished: true}
	})
}

// resume switches control to one process until its next submission or
// return, updates counters and outputs for completions, and classifies what
// happened.
func (s *seqRunner) resume(pid int, res *Result) stepResult {
	if _, ok := s.next[pid](); ok {
		return stepParked
	}
	// The coroutine function completed: the process returned.
	s.state[pid] = stateDone
	s.alive--
	d := s.done[pid]
	if d.err != nil && !errors.Is(d.err, ErrStopped) {
		s.runErr = fmt.Errorf("engine: process %d: %w", pid, d.err)
		return stepStop
	}
	if d.err == nil {
		res.Outputs[pid] = d.output
	}
	if s.cfg.StopWhen != nil && s.cfg.StopWhen(res.Outputs) {
		return stepStop
	}
	return stepDone
}

func (s *seqRunner) run(procs []Coroutine) (*Result, error) {
	res := &Result{Outputs: make(map[int]any)}
	if err := s.ctx.Err(); err != nil {
		// Pre-cancelled: never start a process coroutine.
		return res, fmt.Errorf("engine: run cancelled: %w", context.Cause(s.ctx))
	}

	// Start phase: run every process to its first submission (or return).
	for pid := range procs {
		if s.runErr != nil {
			break
		}
		s.state[pid] = stateRunning
		s.alive++
		s.startProc(pid, procs[pid])
		if s.resume(pid, res) == stepStop {
			break
		}
	}

	// Round loop: every live process is parked with a submission, so the
	// barrier holds by construction — route, then deliver to each waiting
	// process in pid order, regaining control after each one's next
	// submission. A process resumed mid-sweep re-submits at its own index,
	// which the sweep has already passed, so it is never redelivered within
	// the round.
	for s.runErr == nil && s.alive > 0 {
		if err := s.ctx.Err(); err != nil {
			s.runErr = fmt.Errorf("engine: run cancelled: %w", context.Cause(s.ctx))
			break
		}
		if err := s.wd.check(s.rt.round); err != nil {
			s.runErr = err
			break
		}
		out, err := s.rt.route(s.state, s.pending, res)
		if err != nil {
			s.runErr = err
			break
		}
		if s.cfg.StopWhen != nil && s.cfg.StopWhen(res.Outputs) {
			break
		}
		if s.rt.round >= s.cfg.MaxRounds {
			s.runErr = ErrMaxRounds
			break
		}
		stopped := false
		for pid := 0; pid < s.n; pid++ {
			if s.state[pid] != stateWaiting {
				continue
			}
			s.state[pid] = stateRunning
			s.inbox[pid] = out[pid]
			if s.resume(pid, res) == stepStop {
				stopped = true
				break
			}
		}
		if stopped {
			break
		}
	}

	s.unwind(res)
	res.Rounds = s.rt.round
	return res, s.runErr
}

// unwind releases every parked process with a stop switch, which runs its
// coroutine to completion synchronously; coroutines must return promptly on
// ErrStopped. Outputs produced during the unwind (a process that completed
// rather than propagate ErrStopped) are still collected, and a panic during
// the unwind is reported unless the run already failed.
func (s *seqRunner) unwind(res *Result) {
	s.stopping = true
	for pid := range s.state {
		if s.state[pid] != stateWaiting {
			continue
		}
		s.state[pid] = stateDone
		s.alive--
		s.stop[pid]()
		d := s.done[pid]
		var pe *PanicError
		switch {
		case d.finished && d.err == nil:
			res.Outputs[pid] = d.output
		case errors.As(d.err, &pe) && s.runErr == nil:
			s.runErr = fmt.Errorf("engine: process %d: %w", pid, pe)
		}
	}
}
