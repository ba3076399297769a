package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"runtime"
	"time"

	"ndsearch/internal/core"
	"ndsearch/internal/dataset"
	"ndsearch/internal/figures"
	"ndsearch/internal/vec"
)

// simParams sizes the simulate workload: the figures suite workload
// for sift-1b/HNSW at the repository bench scale (n=2000), one traced
// batch of Batch queries, simulated under figures.NDConfig().
type simParams struct {
	N, Batch, K int
	SetupReps   int
	// Expected, when non-nil, is the core.Result the seed-1 batch must
	// produce (expected_simulate.json, embedded).
	Expected []byte
}

// expectedSimulate is the seed-1 core.Result of the default scale, as
// JSON. Regenerate it with `go test -run TestSimulateExpected -update`
// only when a change is meant to alter the simulator's output.
//
//go:embed expected_simulate.json
var expectedSimulate []byte

func defaultSimulate() simParams {
	return simParams{N: 2000, Batch: 256, K: 10, SetupReps: 3, Expected: expectedSimulate}
}

// simSetup builds the suite workload and the NDSEARCH system: the
// simulate workload's set-up.
func simSetup(p simParams, seed int64, cfg core.Config) (*figures.Workload, *core.System, error) {
	suite := figures.NewSuite(figures.Scale{N: p.N, Batch: p.Batch, K: p.K, Seed: seed})
	w, err := suite.Workload("sift-1b", "hnsw")
	if err != nil {
		return nil, nil, err
	}
	sys, err := figures.NDSystem(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	return w, sys, nil
}

// simulateOnce runs one SimulateBatch and returns its result as JSON.
func simulateOnce(sys *core.System, w *figures.Workload, n int) ([]byte, *core.Result, error) {
	r, err := sys.SimulateBatch(w.SubBatch(n))
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(r)
	return b, r, err
}

// runSimulate times repeated SimulateBatch calls on one traced batch.
// Every call's result must equal the first one's, and for seed 1 the
// first must equal the stored expected result.
func runSimulate(rc *runCtx, p simParams) (*outcome, error) {
	o := newOutcome()
	var w *figures.Workload
	var sys *core.System
	var setups []float64
	for i := 0; i < rc.reps(p.SetupReps); i++ {
		runtime.GC()
		start := time.Now()
		var err error
		w, sys, err = simSetup(p, rc.seed, figures.NDConfig())
		if err != nil {
			return nil, err
		}
		end := time.Now()
		setups = append(setups, end.Sub(start).Seconds())
		rc.spans.add("figures.Suite.Workload+NDSystem", 0, 0, start, end, int64(p.N))
	}
	var nospec *core.System
	if rc.traced {
		cfg := figures.NDConfig()
		cfg.Sched.Speculative = false
		var err error
		if nospec, err = figures.NDSystem(w, cfg); err != nil {
			return nil, err
		}
	}

	// The untimed first call warms the simulator and is the reference
	// every timed call must reproduce.
	ref, refRes, err := simulateOnce(sys, w, p.Batch)
	if err != nil {
		return nil, err
	}
	if p.Expected != nil && rc.seed == 1 {
		same := bytes.Equal(ref, bytes.TrimSpace(p.Expected))
		o.check("expected-result", same, "seed-1 core.Result equals expected_simulate.json")
		if !same {
			rc.logf("simulate: got %s", ref)
		}
	}

	runtime.GC()
	m := startMeter()
	cpu0 := cpuTime()
	var calls, nospecCalls []float64
	diff := 0
	begin := time.Now()
	for time.Since(begin) < rc.seconds {
		start := time.Now()
		got, _, err := simulateOnce(sys, w, p.Batch)
		end := time.Now()
		rc.spans.add("core.System.SimulateBatch", 0, 0, start, end, int64(p.Batch))
		calls = append(calls, ms(end.Sub(start)))
		o.attempted++
		if err != nil || !bytes.Equal(got, ref) {
			o.failed++
			diff++
		}
		if nospec != nil {
			start = time.Now()
			_, err := nospec.SimulateBatch(w.SubBatch(p.Batch))
			end = time.Now()
			rc.spans.add("core.System.SimulateBatch(nospec)", 0, 0, start, end, int64(p.Batch))
			nospecCalls = append(nospecCalls, ms(end.Sub(start)))
			if err != nil {
				return nil, err
			}
		}
	}
	cpu := cpuTime() - cpu0
	reading := m.end()
	o.check("repeatable", diff == 0, "%d of %d calls differ from the first call's core.Result", diff, len(calls))

	p50 := median(calls)
	o.e2e["setup_s"] = median(setups)
	o.e2e["p50_ms"] = p50
	o.e2e["p90_ms"] = percentile(calls, 0.9)
	o.e2e["qps"] = float64(p.Batch) / (p50 / 1000)
	o.e2e["cpu_us_per_query"] = perCall(cpu, int64(len(calls)+len(nospecCalls))*int64(p.Batch))
	o.e2e["recall_at_10"] = w.Recall10
	o.e2e["peak_rss_mb"] = reading.PeakRSSMB
	o.steal, o.loadAvg = reading.StealShare, reading.LoadAvg

	o.layer["host.steal_share"] = reading.StealShare
	o.layer["core.simulate_ms"] = p50
	o.layer["core.iterations"] = float64(refRes.Iterations)
	o.layer["core.page_reads"] = float64(refRes.PageReads)
	if refRes.SpecComputed > 0 {
		o.layer["core.spec_hit_ratio"] = float64(refRes.SpecHits) / float64(refRes.SpecComputed)
	}
	if len(nospecCalls) > 0 {
		o.layer["core.nospec_simulate_ms"] = median(nospecCalls)
		o.layer["core.spec_share"] = 1 - median(nospecCalls)/p50
	}
	var hops, evals, unique int64
	batch := w.SubBatch(p.Batch)
	for i := range batch.Queries {
		q := &batch.Queries[i]
		hops += int64(len(q.Iters))
		evals += int64(q.Length())
		unique += int64(q.Unique())
	}
	if n := int64(len(batch.Queries)); n > 0 && evals > 0 {
		o.layer["hnsw.hops_per_search"] = float64(hops) / float64(n)
		o.layer["hnsw.dist_evals_per_search"] = float64(evals) / float64(n)
		o.layer["hnsw.unique_ratio"] = float64(unique) / float64(evals)
	}
	if rc.traced {
		d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: p.N, Seed: rc.seed})
		if err != nil {
			return nil, err
		}
		kernelBench(rc, o, vec.NewKernel(d.Profile.Metric, vec.NewMatrix(d.Vectors)))
	}
	return o, nil
}
