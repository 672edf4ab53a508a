// Package trace renders engine rounds as a human-readable protocol log:
// one line per round summarizing who sent what, plus an end-of-run summary
// with per-label totals and the error/reset timeline. It plugs into
// engine.Config.Trace and is exposed through `cmd/cadn -trace`.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"anondyn/internal/core"
	"anondyn/internal/engine"
	"anondyn/internal/wire"
)

// Logger accumulates and writes the round log. All methods are safe for
// concurrent use.
type Logger struct {
	mu sync.Mutex

	w           io.Writer
	rounds      int
	labelTotals map[wire.Label]int64
	resetRounds []int
	errorRounds []int
	firstHalt   int
}

// New returns a Logger writing one line per round to w. Pass nil to
// collect statistics without per-round output.
func New(w io.Writer) *Logger {
	return &Logger{w: w, labelTotals: make(map[wire.Label]int64), firstHalt: -1}
}

// Hook returns the engine trace callback.
func (l *Logger) Hook() func(round int, sent []engine.Message) {
	return func(round int, sent []engine.Message) {
		l.observe(round, sent)
	}
}

func (l *Logger) observe(round int, sent []engine.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rounds = round

	counts := make(map[wire.Message]int)
	var top wire.Message
	haveTop := false
	unknown := 0
	for _, raw := range sent {
		m, ok := wire.FromBox(raw)
		if !ok {
			unknown++
			continue
		}
		counts[m]++
		l.labelTotals[m.Label]++
		if !haveTop || core.Higher(m, top) {
			top, haveTop = m, true
		}
	}
	if haveTop {
		switch top.Label {
		case wire.LabelError:
			l.errorRounds = append(l.errorRounds, round)
		case wire.LabelReset:
			l.resetRounds = append(l.resetRounds, round)
		case wire.LabelHalt:
			if l.firstHalt < 0 {
				l.firstHalt = round
			}
		}
	}

	if l.w == nil {
		return
	}
	type entry struct {
		msg wire.Message
		n   int
	}
	entries := make([]entry, 0, len(counts))
	for m, n := range counts {
		entries = append(entries, entry{msg: m, n: n})
	}
	sort.Slice(entries, func(i, j int) bool {
		// Highest priority first; ties by count.
		if c := core.Compare(entries[i].msg, entries[j].msg); c != 0 {
			return c > 0
		}
		return entries[i].n > entries[j].n
	})
	var b strings.Builder
	fmt.Fprintf(&b, "r%-5d", round)
	for i, e := range entries {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s×%d", e.msg, e.n)
	}
	if unknown > 0 {
		fmt.Fprintf(&b, "  ?×%d", unknown)
	}
	fmt.Fprintln(l.w, b.String())
}

// Summary renders the end-of-run digest.
func (l *Logger) Summary() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace summary: %d rounds\n", l.rounds)

	labels := make([]wire.Label, 0, len(l.labelTotals))
	for lb := range l.labelTotals {
		labels = append(labels, lb)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	for _, lb := range labels {
		fmt.Fprintf(&b, "  %-6s %d\n", lb, l.labelTotals[lb])
	}
	if len(l.errorRounds) > 0 {
		fmt.Fprintf(&b, "  error phases observed at rounds %s\n", compressRuns(l.errorRounds))
	}
	if len(l.resetRounds) > 0 {
		fmt.Fprintf(&b, "  reset broadcasts observed at rounds %s\n", compressRuns(l.resetRounds))
	}
	if l.firstHalt >= 0 {
		fmt.Fprintf(&b, "  halt broadcast first seen at round %d\n", l.firstHalt)
	}
	return b.String()
}

// Rounds returns the number of rounds observed.
func (l *Logger) Rounds() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rounds
}

// LabelTotal returns the total number of messages sent with the label.
func (l *Logger) LabelTotal(lb wire.Label) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.labelTotals[lb]
}

// compressRuns renders a sorted int slice as compact ranges: "3-7, 12, 19-20".
func compressRuns(xs []int) string {
	if len(xs) == 0 {
		return ""
	}
	var b strings.Builder
	start, prev := xs[0], xs[0]
	flush := func() {
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		if start == prev {
			fmt.Fprintf(&b, "%d", start)
		} else {
			fmt.Fprintf(&b, "%d-%d", start, prev)
		}
	}
	for _, x := range xs[1:] {
		if x == prev || x == prev+1 {
			prev = x
			continue
		}
		flush()
		start, prev = x, x
	}
	flush()
	return b.String()
}
