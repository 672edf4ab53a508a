package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"anondyn/internal/dynnet"
)

// small returns the workload at a reduced size, for tests.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n = map[string]int{"congested-dense": 12, "congested-deep": 8, "linear-dense": 10}[name]
	w.batch = min(w.batch, 2)
	return w
}

func TestTimedScheduleForwardsGraphs(t *testing.T) {
	scheds := map[string]dynnet.InPlaceSchedule{
		"random": dynnet.NewRandomConnected(16, density, 7),
		"path":   pathSpecs(3, 16, 1)[0].sched,
	}
	for name, inner := range scheds {
		ts := &timedSchedule{inner: inner}
		// The engine picks its in-place path by this assertion on the
		// schedule it is handed.
		if _, ok := dynnet.Schedule(ts).(dynnet.InPlaceSchedule); !ok {
			t.Fatalf("%s: wrapper is not an InPlaceSchedule", name)
		}
		g, want := dynnet.NewMultigraph(0), dynnet.NewMultigraph(0)
		for r := 1; r <= 20; r++ {
			ts.GraphInto(r, g)
			inner.GraphInto(r, want)
			if !slices.Equal(g.CanonicalLinks(), want.CanonicalLinks()) {
				t.Fatalf("%s round %d: GraphInto %v, unwrapped %v", name, r, g, want)
			}
			if got, want := ts.Graph(r).CanonicalLinks(), inner.Graph(r).CanonicalLinks(); !slices.Equal(got, want) {
				t.Fatalf("%s round %d: Graph %v, unwrapped %v", name, r, got, want)
			}
		}
		if ts.calls != 40 || ts.busy <= 0 || ts.links == 0 {
			t.Fatalf("%s: calls=%d busy=%v links=%d, want 40 calls with time and links", name, ts.calls, ts.busy, ts.links)
		}
	}
}

// TestTracedRunAgrees runs every workload at reduced n untraced and
// traced: both must be correct and agree on the answer, rounds, levels,
// messages, total bits and largest message.
func TestTracedRunAgrees(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.name)
		for _, sp := range w.build(5, w.n, w.batch) {
			res, err := w.run(sp.sched, sp.inputs, nil)
			if err := verify(sp, res, err); err != nil {
				t.Fatalf("%s untraced: %v", w.name, err)
			}
			ts := &timedSchedule{inner: sp.sched}
			tr := newTracer(ts, !w.linear, sp.seed, 0)
			tr.begin()
			tres, err := w.run(ts, sp.inputs, tr.hook)
			tr.end()
			if err := verify(sp, tres, err); err != nil {
				t.Fatalf("%s traced: %v", w.name, err)
			}
			if got, want := outcomeOf(tres), outcomeOf(res); got != want {
				t.Fatalf("%s: traced %+v, untraced %+v", w.name, got, want)
			}
			if len(tr.span.rounds) != res.Stats.Rounds || ts.calls != res.Stats.Rounds {
				t.Fatalf("%s: %d round spans and %d graph calls for %d rounds", w.name, len(tr.span.rounds), ts.calls, res.Stats.Rounds)
			}
			if !w.linear {
				var bits int64
				for _, r := range tr.span.rounds {
					bits += r.bits
				}
				if bits != res.Stats.TotalBits {
					t.Fatalf("%s: traced rounds sum to %d bits, run reports %d", w.name, bits, res.Stats.TotalBits)
				}
			}
		}
	}
}

// TestRelabelledPathsKeepRounds pins that the deep workload's seed varies
// the input but not the run.
func TestRelabelledPathsKeepRounds(t *testing.T) {
	w := small(t, "congested-deep")
	rounds := map[int]bool{}
	links := map[string]bool{}
	for seed := uint64(1); seed <= 4; seed++ {
		sp := w.build(seed, w.n, 1)[0]
		res, err := w.run(sp.sched, sp.inputs, nil)
		if err := verify(sp, res, err); err != nil {
			t.Fatal(err)
		}
		rounds[res.Stats.Rounds] = true
		links[sp.sched.Graph(1).String()] = true
	}
	if len(rounds) != 1 || len(links) < 2 {
		t.Fatalf("rounds %v over %d distinct paths, want one round count over several paths", rounds, len(links))
	}
}

// TestLedgerAccountsForWall runs both loops once on small workloads: every
// run must pass, and the three layer shares of a congested run must add
// up to the traced wall time.
func TestLedgerAccountsForWall(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.name)
		b := newBench(w, w.build(9, w.n, w.batch), 0)
		e2e := b.endToEnd(0.001)
		layers, spans := b.layers()
		if len(b.failures) != 0 || b.failed != 0 {
			t.Fatalf("%s: failures %v", w.name, b.failures)
		}
		if len(spans) == 0 || e2e["rounds"].Value <= 0 || e2e["run_s.p50"].Value <= 0 {
			t.Fatalf("%s: no measurement: %d spans, %+v", w.name, len(spans), e2e)
		}
		step := "core.step_share"
		if w.linear {
			step = "linear.step_share"
		}
		sum := layers["dynnet.graph_share"].Value + layers["engine.route_share"].Value + layers[step].Value
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: layer shares sum to %v", w.name, sum)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range bj.Workloads {
		names = append(names, e.Name)
		if _, err := lookupWorkload(e.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the program %d", names, len(workloads))
	}
	for _, c := range []struct {
		list  []entry
		units map[string]string
	}{{bj.EndToEnd, endToEndUnits}, {bj.PerLayer, perLayerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.list), len(c.units))
		}
		for _, e := range c.list {
			if u, ok := c.units[e.Name]; !ok || u != e.Unit {
				t.Errorf("metric %s (%s): program has unit %q", e.Name, e.Unit, u)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
