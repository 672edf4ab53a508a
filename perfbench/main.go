// Command perfbench is the repository benchmark: it times the public
// entry points core.Run and linear.Run on one workload, checks every run's
// answer, and prints the end-to-end metrics (--trace 0) or the per-layer
// ledger measured from outside the program (--trace 1). Build and run it
// from the repository root with perfbench/run.sh; BENCHMARK.json names the
// workloads and metrics, and LEDGER.md says what each metric should move.
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": 37, "failed": 0, "metrics": {...}}
//
// The line before it records the seed, the host and the per-spec outcomes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"anondyn/internal/core"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the context line printed before the result.
type record struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Seconds  int          `json:"seconds"`
	Trace    int          `json:"trace"`
	N        int          `json:"n"`
	Host     hostRecord   `json:"host"`
	Specs    []specRecord `json:"specs"`
	Failures []string     `json:"failures"`
	// PeakRSSReset is empty when peak_rss_mb is per run, else why it
	// covers the process up to each run.
	PeakRSSReset string `json:"peak_rss_reset,omitempty"`
}

type specRecord struct {
	Seed    uint64 `json:"seed"`
	Runs    int    `json:"runs"`
	Rounds  int    `json:"rounds"`
	Levels  int    `json:"levels"`
	Bits    int64  `json:"bits"`
	MaxBits int    `json:"max_bits"`
	// WallS is the wall time of each of the spec's timed runs (none when
	// traced).
	WallS []float64 `json:"wall_s"`
}

// setupProbes is the number of fresh processes timed for setup_s.
const setupProbes = 31

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed; per-run seeds derive from it")
	seconds := flag.Int("seconds", 36, "measuring time of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer ledger")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to (empty: keep them in memory only)")
	probe := flag.Bool("setup-probe", false, "only set up the workload and exit (used to time setup_s)")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *probe {
		w.build(*seed, w.n, w.batch)
		return nil
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}

	rec := record{Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace, N: w.n, Host: newHostRecord()}
	var setup float64
	if *trace == 0 {
		if setup, err = timeSetup(w.name, *seed); err != nil {
			return err
		}
	}
	b := newBench(w, w.build(*seed, w.n, w.batch), time.Duration(*seconds)*time.Second)
	var metrics map[string]metric
	if *trace == 0 {
		metrics = b.endToEnd(setup)
	} else {
		var spans []runSpan
		metrics, spans = b.layers()
		if *spansDir != "" {
			if err := writeSpans(*spansDir, w.name, *seed, spans); err != nil {
				return err
			}
		}
	}
	rec.Host.Load1After = load1()
	rec.Specs = b.specRecords()
	rec.Failures = b.failures
	if b.rssErr != nil {
		rec.PeakRSSReset = b.rssErr.Error()
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}

	res := result{
		Correct:   len(b.failures) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rec); err != nil {
		return err
	}
	return out.Encode(res)
}

// timeSetup starts fresh processes that only set the workload up and
// returns the median time from process start to their exit: runtime and
// package initialisation plus building the schedules and inputs.
func timeSetup(workload string, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, setupProbes)
	for i := range times {
		cmd := exec.Command(exe, "--setup-probe", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times), nil
}

// bench holds the state of one benchmark process: the specs, the tally of
// verified runs and what repeated runs of each spec must agree on.
type bench struct {
	w      workload
	budget time.Duration
	specs  []spec

	attempted, failed int
	failures          []string
	agreed            map[int]outcome   // first outcome of each spec
	runs              map[int]int       // runs of each spec
	walls             map[int][]float64 // wall seconds of each spec's timed runs
	rssErr            error             // why per-run peak RSS could not be reset
}

func newBench(w workload, specs []spec, budget time.Duration) *bench {
	return &bench{
		w:      w,
		budget: budget,
		specs:  specs,
		agreed: map[int]outcome{},
		runs:   map[int]int{},
		walls:  map[int][]float64{},
	}
}

// fail records a failed run; it is counted once however many checks it
// broke.
func (b *bench) fail(spec int, format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf("spec %d (seed %d): ", spec, b.specs[spec].seed)+fmt.Sprintf(format, args...))
}

// checkRun verifies a finished run of spec i: no error, the answer
// matches ground truth, and the outcome matches every earlier run of the
// same spec. It reports whether the run passed.
func (b *bench) checkRun(i int, kind string, res *core.RunResult, err error) bool {
	b.attempted++
	b.runs[i]++
	if err := verify(b.specs[i], res, err); err != nil {
		b.fail(i, "%s run: %v", kind, err)
		return false
	}
	got := outcomeOf(res)
	want, seen := b.agreed[i]
	if !seen {
		b.agreed[i] = got
		return true
	}
	if got != want {
		b.fail(i, "%s run disagrees with an earlier run of the spec: %+v, want %+v", kind, got, want)
		return false
	}
	return true
}

func (b *bench) specRecords() []specRecord {
	out := make([]specRecord, len(b.specs))
	for i, sp := range b.specs {
		o := b.agreed[i]
		out[i] = specRecord{Seed: sp.seed, Runs: b.runs[i], Rounds: o.rounds, Levels: o.levels, Bits: o.bits, MaxBits: o.maxBits, WallS: b.walls[i]}
	}
	return out
}
