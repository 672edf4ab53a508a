package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Metric names and units; BENCHMARK.json lists the same, which
// TestBenchmarkJSONMatchesMetrics checks.
var endToEndUnits = map[string]string{
	"setup_s":           "s",
	"run_s.p50":         "s",
	"proc_rounds_per_s": "1/s",
	"cpu_s":             "s",
	"alloc_mb":          "MB",
	"peak_rss_mb":       "MB",
	"rounds":            "count",
	"msg_bits_max":      "bit",
	"bits_total":        "bit",
}

var perLayerUnits = map[string]string{
	"dynnet.graph_s":           "s",
	"dynnet.graph_share":       "ratio",
	"dynnet.graph_calls":       "count",
	"dynnet.links_per_round":   "count",
	"engine.round_us.p50":      "us",
	"engine.round_us.p99":      "us",
	"engine.round_us.max":      "us",
	"engine.msgs":              "count",
	"engine.route_s":           "s",
	"engine.route_share":       "ratio",
	"core.step_s":              "s",
	"core.step_share":          "ratio",
	"core.uniform_round_share": "ratio",
	"core.share_hit_ratio":     "ratio",
	"core.share_forks":         "count",
	"core.resets":              "count",
	"core.levels":              "count",
	"core.peak_resident_nodes": "count",
	"historytree.solve_s":      "s",
	"historytree.solve_share":  "ratio",
	"historytree.solve_calls":  "count",
	"historytree.solve_primes": "count",
	"historytree.replay_s":     "s",
	"wire.bits_per_msg":        "bit",
	"wire.bits_per_round.max":  "bit",
	"linear.step_s":            "s",
	"linear.step_share":        "ratio",
	"linear.round_ms.p50":      "ms",
	"linear.round_ms.last":     "ms",
	"trace.overhead_ratio":     "ratio",
	"fail_ratio":               "ratio",
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func withUnits(units map[string]string, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := values[name]
		if !ok {
			panic("perfbench: metric " + name + " not measured")
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(values) != len(units) {
		panic("perfbench: unlisted metric measured")
	}
	return out
}

// done reports whether a loop should stop after i+1 iterations, given
// their durations so far: once it has made at least minIters, stop when
// the next iteration would likely end past the budget.
func (b *bench) done(i, minIters int, start time.Time, walls []float64) bool {
	if i+1 < minIters {
		return false
	}
	next := time.Duration(median(walls) * float64(time.Second))
	return time.Since(start)+next > b.budget
}

// endToEnd runs the workload untraced, cycling through its specs, and
// returns the end-to-end metrics.
func (b *bench) endToEnd(setup float64) map[string]metric {
	const mb = 1 << 20
	var walls, cpus, allocs, rss []float64
	var roundsDone, wallDone float64
	start := time.Now()
	for i := 0; ; i++ {
		k := i % len(b.specs)
		sp := b.specs[k]
		if err := resetPeakRSS(); err != nil && b.rssErr == nil {
			// The peaks then cover the process so far, not one run.
			b.rssErr = err
		}
		u0 := readUsage()
		t0 := time.Now()
		res, err := b.w.run(sp.sched, sp.inputs, nil)
		wall := time.Since(t0)
		u1 := readUsage()
		if b.checkRun(k, "timed", res, err) {
			walls = append(walls, wall.Seconds())
			b.walls[k] = append(b.walls[k], wall.Seconds())
			cpus = append(cpus, (u1.cpu - u0.cpu).Seconds())
			allocs = append(allocs, float64(u1.alloc-u0.alloc)/mb)
			rss = append(rss, peakRSSMB())
			roundsDone += float64(res.Stats.Rounds)
			wallDone += wall.Seconds()
		}
		// Every spec runs once, and at least two runs compare repeats.
		if b.done(i, max(len(b.specs), 2), start, walls) {
			break
		}
	}
	var rounds, bits []float64
	maxBits := 0
	for k := range b.specs {
		if o, ok := b.agreed[k]; ok {
			rounds = append(rounds, float64(o.rounds))
			bits = append(bits, float64(o.bits))
			maxBits = max(maxBits, o.maxBits)
		}
	}
	throughput := 0.0
	if wallDone > 0 {
		throughput = float64(b.w.n) * roundsDone / wallDone
	}
	return withUnits(endToEndUnits, map[string]float64{
		"setup_s":           setup,
		"run_s.p50":         median(walls),
		"proc_rounds_per_s": throughput,
		"cpu_s":             median(cpus),
		"alloc_mb":          median(allocs),
		"peak_rss_mb":       median(rss),
		"rounds":            median(rounds),
		"msg_bits_max":      float64(maxBits),
		"bits_total":        median(bits),
	})
}

// layerSample is the ledger of one traced run.
type layerSample struct {
	values map[string]float64
	plain  float64 // wall of the untraced run of the same spec
	traced float64
}

// layers runs the workload's specs untraced, traced, as a null protocol
// and through a solver replay, and returns the per-layer metrics with the
// traced runs' spans.
func (b *bench) layers() (map[string]metric, []runSpan) {
	var runs []layerSample
	var spans []runSpan
	var walls []float64
	var gaps []float64 // every round of every traced run, µs
	start := time.Now()
	for i := 0; ; i++ {
		iterStart := time.Now()
		if lr, span, ok := b.layerRun(i % len(b.specs)); ok {
			runs = append(runs, lr)
			spans = append(spans, span)
			gaps = append(gaps, span.gaps(time.Microsecond)...)
		}
		walls = append(walls, time.Since(iterStart).Seconds())
		// Each iteration already compares a traced with an untraced run.
		if b.done(i, 1, start, walls) {
			break
		}
	}

	values := map[string]float64{}
	for name := range perLayerUnits {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.values[name])
		}
		values[name] = median(xs)
	}
	var plain, traced float64
	for _, r := range runs {
		plain += r.plain
		traced += r.traced
	}
	if plain > 0 {
		values["trace.overhead_ratio"] = traced/plain - 1
	}
	values["engine.round_us.p50"] = quantile(gaps, 0.5)
	values["engine.round_us.p99"] = quantile(gaps, 0.99)
	values["engine.round_us.max"] = quantile(gaps, 1)
	values["fail_ratio"] = float64(b.failed) / float64(max(b.attempted, 1))
	return withUnits(perLayerUnits, values), spans
}

// layerRun measures spec k once per mode: an untraced run, a traced run
// whose outcome must equal it, a null-protocol run over the same schedule
// for the same round count, and a replay of the deciding solver. It
// reports false if any of them failed.
func (b *bench) layerRun(k int) (layerSample, runSpan, bool) {
	sp := b.specs[k]
	t0 := time.Now()
	res, err := b.w.run(sp.sched, sp.inputs, nil)
	plain := time.Since(t0)
	if !b.checkRun(k, "untraced", res, err) {
		return layerSample{}, runSpan{}, false
	}

	ts := &timedSchedule{inner: sp.sched}
	tr := newTracer(ts, !b.w.linear, sp.seed, res.Stats.Rounds)
	tr.begin()
	tres, err := b.w.run(ts, sp.inputs, tr.hook)
	tr.end()
	if !b.checkRun(k, "traced", tres, err) {
		return layerSample{}, runSpan{}, false
	}
	rounds := tres.Stats.Rounds
	nullWall, nullGraph, err := nullRoute(sp.sched, rounds)
	if err != nil {
		b.fail(k, "null-protocol run: %v", err)
		return layerSample{}, runSpan{}, false
	}
	replay, err := replaySolve(tres)
	if err != nil {
		b.fail(k, "solver replay: %v", err)
		return layerSample{}, runSpan{}, false
	}

	st := tres.Stats
	wall := tr.span.wall.Seconds()
	graph := ts.busy.Seconds()
	route := (nullWall - nullGraph).Seconds()
	step := wall - graph - route
	v := map[string]float64{
		"dynnet.graph_s":           graph,
		"dynnet.graph_share":       graph / wall,
		"dynnet.graph_calls":       float64(ts.calls),
		"dynnet.links_per_round":   float64(ts.links) / float64(max(ts.calls, 1)),
		"engine.msgs":              float64(st.TotalMessages),
		"engine.route_s":           route,
		"engine.route_share":       route / wall,
		"historytree.solve_s":      st.SolverTime.Seconds(),
		"historytree.solve_share":  st.SolverTime.Seconds() / wall,
		"historytree.solve_calls":  float64(st.SolverCalls),
		"historytree.solve_primes": float64(st.SolverPrimes),
		"historytree.replay_s":     replay.Seconds(),
		"wire.bits_per_msg":        float64(st.TotalBits) / float64(max(st.TotalMessages, 1)),
	}
	if b.w.linear {
		v["linear.step_s"] = step
		v["linear.step_share"] = step / wall
		gaps := tr.span.gaps(time.Millisecond)
		v["linear.round_ms.p50"] = median(gaps)
		if len(gaps) > 0 {
			v["linear.round_ms.last"] = gaps[len(gaps)-1]
		}
	} else {
		uniform := 0
		var maxRoundBits int64
		for _, r := range tr.span.rounds {
			if r.uniform {
				uniform++
			}
			maxRoundBits = max(maxRoundBits, r.bits)
		}
		v["core.step_s"] = step
		v["core.step_share"] = step / wall
		v["core.uniform_round_share"] = float64(uniform) / float64(max(rounds, 1))
		if n := st.SharedHits + st.SharedApplies; n > 0 {
			v["core.share_hit_ratio"] = float64(st.SharedHits) / float64(n)
		}
		v["core.share_forks"] = float64(st.SharedForks)
		v["core.resets"] = float64(st.Resets)
		v["core.levels"] = float64(st.Levels)
		v["core.peak_resident_nodes"] = float64(st.PeakResidentNodes)
		v["wire.bits_per_round.max"] = float64(maxRoundBits)
	}
	return layerSample{values: v, plain: plain.Seconds(), traced: wall}, tr.span, true
}

// writeSpans writes the traced runs' spans as gzipped CSV: one "run" row
// per run and one "round" row per simulated round.
func writeSpans(dir, workload string, seed uint64, spans []runSpan) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "kind,run,spec_seed,round,start_ns,dur_ns,graph_ns,bits,uniform")
	for i, s := range spans {
		fmt.Fprintf(w, "run,%d,%d,0,%d,%d,0,0,0\n", i, s.spec, s.start.UnixNano(), s.wall.Nanoseconds())
		prev := time.Duration(0)
		for r, rs := range s.rounds {
			u := 0
			if rs.uniform {
				u = 1
			}
			fmt.Fprintf(w, "round,%d,%d,%d,%d,%d,%d,%d,%d\n", i, s.spec, r+1, prev.Nanoseconds(), (rs.end - prev).Nanoseconds(), rs.graph.Nanoseconds(), rs.bits, u)
			prev = rs.end
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
