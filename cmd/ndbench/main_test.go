package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0.05, 15}, {0.3, 20}, {0.4, 20}, {0.5, 35}, {0.9, 50}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("unsorted median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("even-sized median = %g, want the lower middle 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	in := []float64{3, 1, 2}
	percentile(in, 0.9)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(7, 400, 5*time.Second)
	b := poissonSchedule(7, 400, 5*time.Second)
	c := poissonSchedule(8, 400, 5*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// 2000 arrivals expected; a Poisson count is within 4 sigma (~180).
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 5 s at 400/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the phase", i, a[i])
		}
	}
}

func TestWindowMedian(t *testing.T) {
	w := []closedResult{
		{Done: 100, Elapsed: 500 * time.Millisecond},
		{Done: 10, Elapsed: 500 * time.Millisecond},
		{Done: 110, Elapsed: 550 * time.Millisecond},
		{Done: 98, Elapsed: 490 * time.Millisecond},
		{Done: 101, Elapsed: 505 * time.Millisecond},
	}
	if got := windowMedian(w); got != 200 {
		t.Errorf("window median = %g, want 200 (the stalled window is outvoted)", got)
	}
	if got := windowMedian(nil); got != 0 {
		t.Errorf("no windows = %g, want 0", got)
	}
}

func TestCPUTimeAccounting(t *testing.T) {
	if got := perCall(3*time.Millisecond, 4); got != 750 {
		t.Errorf("perCall(3ms, 4) = %g us, want 750", got)
	}
	if got := perCall(time.Second, 0); got != 0 {
		t.Errorf("perCall over no calls = %g, want 0", got)
	}
	// Spinning for 100 ms of wall time must show up as CPU time; sleeping
	// for as long must not.
	c0 := cpuTime()
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
	}
	spun := cpuTime() - c0
	if spun < 50*time.Millisecond {
		t.Errorf("100 ms spin counted %v of CPU", spun)
	}
	c0 = cpuTime()
	time.Sleep(100 * time.Millisecond)
	if slept := cpuTime() - c0; slept > 50*time.Millisecond {
		t.Errorf("100 ms sleep counted %v of CPU", slept)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "fanout", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "shard_search", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "shard_search", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "merge", Start: 55, End: 70},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 40, 2: 20, 3: 20, 4: 20, 5: 15} {
		if self[id] != want {
			t.Errorf("self time of span %d = %g, want %g", id, self[id], want)
		}
	}
	ls := newLayerStats(spans)
	if got := ls.startLagP50("shard_search"); got != 10 {
		t.Errorf("shard_search start lag p50 = %g, want 10", got)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric lists in step with the
// repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, ndbench %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, ndbench %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not an ndbench workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, ndbench has %d workloads", names, len(workloads))
	}
}

// tinyWorkloads are the four workloads at a scale that runs in seconds.
func tinyWorkloads() map[string]workloadFunc {
	serve := serveParams{
		N: 600, Shards: 2, K: 10, Queries: 40, RecallQueries: 10,
		OpenRate: 100, Clients: 4, SetupReps: 2, Window: 100 * time.Millisecond,
		CacheFrac: 8, ReplayQueries: 5, CalibReps: 1,
	}
	rw := rwParams{serveParams: serve, WriteRate: 300, InsertShare: 0.4, OverwriteShare: 0.4,
		Pool: 200, SampleEvery: 20 * time.Millisecond}
	rw.N = 400
	sim := simParams{N: 300, Batch: 16, K: 10, SetupReps: 2}
	return map[string]workloadFunc{
		"serve-ram":   func(rc *runCtx) (*outcome, error) { return runServe(rc, serve, false) },
		"serve-paged": func(rc *runCtx) (*outcome, error) { return runServe(rc, serve, true) },
		"read-write":  func(rc *runCtx) (*outcome, error) { return runReadWrite(rc, rw) },
		"simulate":    func(rc *runCtx) (*outcome, error) { return runSimulate(rc, sim) },
	}
}

// TestTinyRunAllWorkloads runs every workload untraced and traced at a
// tiny scale and checks that the result line names every metric with
// its unit and that every output check passed.
func TestTinyRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	wls := tinyWorkloads()
	for _, name := range []string{"serve-ram", "serve-paged", "read-write", "simulate"} {
		for _, trace := range []int{0, 1} {
			out := t.TempDir()
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1",
				"--trace", strconv.Itoa(trace), "--out", out}
			if code := run(args, wls, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", name, trace, code, stderr.String())
			}
			res := lastResult(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, stdout.String())
			}
			defs := defsFor(trace == 1)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, d.Name, m, d.Unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, m.Value)
				}
			}
			if trace == 1 {
				spans, err := filepath.Glob(filepath.Join(out, "spans-"+name+"-seed3.jsonl"))
				if err != nil || len(spans) != 1 {
					t.Errorf("%s: spans file missing (%v)", name, err)
				}
			}
		}
	}
}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return res
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"--workload", "nope"},
		{"--workload", "simulate", "--seconds", "0"},
		{"--workload", "simulate", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, workloads, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q", args, stdout.String())
		}
	}
}
