package engine

import (
	"errors"
	"fmt"
	"time"
)

// ErrWatchdog is reported by a run that exceeded Config.Deadline. Test for
// it with errors.Is; the concrete *WatchdogError carries the details.
var ErrWatchdog = errors.New("engine: watchdog deadline exceeded")

// WatchdogError reports that a run was still active when its wall-clock
// deadline (Config.Deadline) elapsed. It is how the engine turns hangs —
// protocols wedged by out-of-model faults, stop conditions that can never
// hold — into structured failures instead of stuck goroutines.
type WatchdogError struct {
	// Rounds is the number of completed rounds when the deadline fired.
	Rounds int
	// Limit is the configured deadline.
	Limit time.Duration
}

// Error implements the error interface.
func (e *WatchdogError) Error() string {
	return fmt.Sprintf("engine: watchdog: run still active after %v (%d rounds completed)",
		e.Limit, e.Rounds)
}

// Unwrap makes errors.Is(err, ErrWatchdog) hold for *WatchdogError values.
func (e *WatchdogError) Unwrap() error { return ErrWatchdog }

// watchdog tracks a run's optional wall-clock deadline. The zero value (no
// limit) never fires and its check performs no clock reads.
type watchdog struct {
	limit    time.Duration
	deadline time.Time
}

func newWatchdog(limit time.Duration) watchdog {
	w := watchdog{limit: limit}
	if limit > 0 {
		w.deadline = time.Now().Add(limit)
	}
	return w
}

// check returns a *WatchdogError once the deadline has passed, nil before.
func (w *watchdog) check(rounds int) error {
	if w.limit <= 0 || time.Now().Before(w.deadline) {
		return nil
	}
	return &WatchdogError{Rounds: rounds, Limit: w.limit}
}
