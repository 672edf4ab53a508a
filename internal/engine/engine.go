// Package engine executes anonymous distributed protocols over dynamic
// networks in synchronous lock-step rounds.
//
// Protocols are written in the blocking, coroutine style of the paper's
// pseudocode: a process calls Transport.SendAndReceive once per round, which
// broadcasts its message on all incident links of the current round's
// multigraph and blocks until the multiset of messages from its neighbors is
// available. A runner enforces the round barrier, routes messages according
// to the schedule, and accounts for message sizes so congestion bounds can
// be asserted.
//
// One runner executes every run: each process is a pull coroutine, resumed
// one at a time by direct coroutine switch — no channels, no scheduler
// queueing, no contention — so the per-round cost is the protocol's own work
// plus the shared routing. State machines (Stepper) run on it through
// FromStepper.
//
// Execution is deterministic: rounds are strict barriers, the delivery order
// within a round is the canonical link order of the multigraph, and
// protocols treat deliveries as multisets.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"anondyn/internal/dynnet"
)

// Message is a protocol message. The engine treats messages as opaque
// values; size accounting is delegated to Config.SizeOf.
type Message any

// Coroutine is a protocol participant written in blocking style. Run must
// communicate exclusively through t and must return promptly with
// ErrStopped (possibly wrapped) once SendAndReceive reports it.
type Coroutine interface {
	// Run executes the protocol for one process and returns its output.
	Run(t *Transport) (any, error)
}

// CoroutineFunc adapts a function to the Coroutine interface.
type CoroutineFunc func(t *Transport) (any, error)

// Run implements Coroutine.
func (f CoroutineFunc) Run(t *Transport) (any, error) { return f(t) }

// ErrStopped is returned by Transport.SendAndReceive when the run has been
// cancelled (stop condition met or round budget exhausted). Coroutines must
// propagate it.
var ErrStopped = errors.New("engine: run stopped")

// ErrMaxRounds is reported by Run when the round budget was exhausted
// before the stop condition held.
var ErrMaxRounds = errors.New("engine: maximum round budget exhausted")

// BitLimitError reports a message that exceeded the configured congestion
// limit.
type BitLimitError struct {
	Round   int
	Process int
	Bits    int
	Limit   int
}

// Error implements the error interface.
func (e *BitLimitError) Error() string {
	return fmt.Sprintf("engine: round %d: process %d sent %d bits, limit %d",
		e.Round, e.Process, e.Bits, e.Limit)
}

// PanicError reports a process coroutine that panicked. The runner recovers
// the panic, unwinds the other processes and returns the partial Result
// alongside the error (wrapped with the process index; test for it with
// errors.As), so a faulty protocol fails its run instead of the whole
// program.
type PanicError struct {
	// PID is the index of the process that panicked.
	PID int
	// Round is the number of rounds the run had completed at the panic.
	Round int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic after %d rounds: %v", e.Round, e.Value)
}

// AdaptiveSchedule is a reactive adversary: it chooses each round's
// multigraph AFTER seeing the messages the processes are sending this
// round (the strongly adaptive model). For deterministic protocols this
// adds no theoretical power over an oblivious adversary — the adversary
// could precompute the run — but it makes worst-case adversaries far
// easier to express (e.g. "always isolate the holders of the
// highest-priority message").
type AdaptiveSchedule interface {
	// N returns the number of processes.
	N() int
	// Graph returns the round-`round` multigraph given the messages sent
	// this round; sent[pid] is process pid's message, or nil if it has
	// terminated. The engine reuses the sent slice between rounds;
	// implementations must not retain it past the call.
	Graph(round int, sent []Message) *dynnet.Multigraph
}

// Config parameterizes a run.
type Config struct {
	// Schedule supplies the communication multigraph of every round.
	// Exactly one of Schedule and Adaptive must be set.
	Schedule dynnet.Schedule
	// Adaptive, if set, replaces Schedule with a reactive adversary.
	Adaptive AdaptiveSchedule
	// MaxRounds caps the run; when exceeded, Run cancels the processes and
	// returns ErrMaxRounds. It must be positive.
	MaxRounds int
	// Deadline, when positive, bounds the run's wall-clock time: once it
	// has elapsed the runner stops the processes at the next round
	// boundary and reports a *WatchdogError (errors.Is ErrWatchdog). This is
	// the engine's watchdog — it turns hangs caused by out-of-model faults
	// or unsatisfiable stop conditions into structured failures. Zero
	// means no deadline.
	Deadline time.Duration
	// SizeOf measures a message in bits for congestion accounting. If nil,
	// sizes are not tracked and BitLimit is ignored. It is never invoked
	// concurrently.
	SizeOf func(Message) int
	// BitLimit, when positive and SizeOf is set, aborts the run with a
	// *BitLimitError as soon as any message exceeds it.
	BitLimit int
	// StopWhen, if non-nil, is evaluated at the end of every round on the
	// outputs collected so far (keyed by process index); returning true
	// cancels the remaining processes. If nil, the run continues until all
	// processes have returned.
	StopWhen func(outputs map[int]any) bool
	// Trace, if non-nil, receives every round's sent messages after
	// delivery, for debugging and engine-level tests. The engine reuses
	// the slice between rounds; callbacks must not retain it past the
	// call (copy if needed).
	Trace func(round int, sent []Message)
}

// validate checks the run parameters and returns the process count.
func (cfg *Config) validate(procs int) (int, error) {
	var n int
	switch {
	case cfg.Schedule != nil && cfg.Adaptive != nil:
		return 0, errors.New("engine: both Schedule and Adaptive set")
	case cfg.Schedule != nil:
		n = cfg.Schedule.N()
	case cfg.Adaptive != nil:
		n = cfg.Adaptive.N()
	default:
		return 0, errors.New("engine: nil schedule")
	}
	if procs != n {
		return 0, fmt.Errorf("engine: %d coroutines for %d processes", procs, n)
	}
	if cfg.MaxRounds <= 0 {
		return 0, fmt.Errorf("engine: non-positive MaxRounds %d", cfg.MaxRounds)
	}
	return n, nil
}

// Result summarizes a completed (or cancelled) run.
type Result struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Outputs maps the index of every process that returned a value before
	// cancellation to that value.
	Outputs map[int]any
	// MaxMessageBits is the largest message observed (0 if SizeOf is nil).
	MaxMessageBits int
	// TotalMessages counts messages sent (one per process per round).
	TotalMessages int64
	// TotalBits accumulates SizeOf over all sent messages.
	TotalBits int64
}

// Run executes one coroutine per process over cfg.Schedule and returns the
// collected outputs. len(procs) must equal cfg.Schedule.N().
func Run(cfg Config, procs []Coroutine) (*Result, error) {
	return RunContext(context.Background(), cfg, procs)
}

// RunContext is Run with external cancellation: when ctx is cancelled the
// runner stops the run at the next round boundary, unwinds every process
// coroutine, and returns an error wrapping ctx's cause. The partial Result
// (rounds executed so far, outputs already produced) is still returned
// alongside the error.
func RunContext(ctx context.Context, cfg Config, procs []Coroutine) (*Result, error) {
	n, err := cfg.validate(len(procs))
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &seqRunner{
		cfg:     cfg,
		ctx:     ctx,
		wd:      newWatchdog(cfg.Deadline),
		n:       n,
		rt:      newRouter(&cfg, n),
		state:   make([]procState, n),
		pending: make([]Message, n),
		next:    make([]func() (struct{}, bool), n),
		stop:    make([]func(), n),
		yield:   make([]func(struct{}) bool, n),
		inbox:   make([][]Message, n),
		done:    make([]seqDone, n),
	}
	return s.run(procs)
}

type procState int

const (
	stateRunning procState = iota + 1
	stateWaiting           // submitted this round, blocked on delivery
	stateDone              // returned an output
)

// Transport is the per-process communication endpoint handed to
// Coroutine.Run.
type Transport struct {
	pid   int
	run   *seqRunner
	round int
}

// PID returns the process index in [0, n). It exists for the engine's own
// bookkeeping and for test instrumentation; anonymous protocols must not
// let it influence their behaviour.
func (t *Transport) PID() int { return t.pid }

// Round returns the number of completed communication rounds for this
// process (0 before the first SendAndReceive returns).
func (t *Transport) Round() int { return t.round }

// SendAndReceive broadcasts msg on all links incident to this process in
// the current round's multigraph and blocks until the round completes,
// returning the multiset of messages received from neighbors (possibly
// empty if the process is isolated this round). It returns ErrStopped when
// the run has been cancelled.
//
// The returned slice is valid only until this process's next
// SendAndReceive call: the engine round-robins the backing storage between
// rounds. Processes that need deliveries across rounds must copy them.
func (t *Transport) SendAndReceive(msg Message) ([]Message, error) {
	return t.run.sendAndReceive(t, msg)
}
