package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/batcher"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/obs"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
	"ndsearch/internal/workload"
)

// serveParams sizes a serving workload. The defaults are ndserve's:
// the sift-1b profile, 4 HNSW shards, engine workers = GOMAXPROCS and
// the batcher's default coalescing policy.
type serveParams struct {
	N, Shards, K int
	// Queries is the held-out query pool; the first RecallQueries of it
	// are the fixed subset the output checks and recall@10 use.
	Queries, RecallQueries int
	// OpenRate is the fixed open-loop offered rate (requests/s), 12-20%
	// of the workload's closed-loop capacity on a 2-core host.
	OpenRate float64
	// Clients is the closed-loop concurrency (requests in flight).
	Clients int
	// SetupReps is how often set-up is repeated; setup_s is the median.
	SetupReps int
	// Window is the length of one open-loop or closed-loop slice of the
	// timed phases.
	Window time.Duration
	// CacheFrac sizes serve-paged's per-shard page cache to
	// 1/CacheFrac of the shard's pages.
	CacheFrac int
	// ReplayQueries is how many queries the traced run replays through
	// each shard's ann.Index.SearchTraced.
	ReplayQueries int
	// CalibReps is the number of engine.SearchBatch timings per batch
	// size that calibrate the queueing model (serve-ram).
	CalibReps int
}

func defaultServe() serveParams {
	return serveParams{
		N: 20000, Shards: 4, K: 10, Queries: 1000, RecallQueries: 100,
		OpenRate: 300, Clients: 32, SetupReps: 3, Window: 500 * time.Millisecond,
		ReplayQueries: 100, CalibReps: 5,
	}
}

func defaultPaged() serveParams {
	p := defaultServe()
	p.OpenRate = 175
	p.SetupReps = 25
	p.CacheFrac = 8
	return p
}

// session is one serving engine behind a batcher, as ndserve runs it,
// plus what the benchmark needs to drive and trace it.
type session struct {
	rc      *runCtx
	e       *engine.Engine
	b       *batcher.Batcher
	k       int
	queries []vec.Vector
	// pick is the seeded order requests draw queries in.
	pick []int
	// seen dedupes engine-batch spans: every traced waiter of a
	// coalesced batch receives the whole batch's spans, which are
	// recorded once, under the first of them.
	seen sync.Map
	// deltaRows, when set, reports the delta tier's live rows at the
	// moment a traced read returns (the merge_delta work count).
	deltaRows func() int64
}

func newSession(rc *runCtx, e *engine.Engine, k int, queries []vec.Vector) *session {
	rng := rand.New(rand.NewSource(subSeed(rc.seed, 1)))
	pick := make([]int, 8192)
	for i := range pick {
		pick[i] = rng.Intn(len(queries))
	}
	return &session{rc: rc, e: e, b: batcher.New(e, batcher.Config{}), k: k, queries: queries, pick: pick}
}

func (s *session) close() {
	s.b.Close()
	s.e.Close()
}

func (s *session) query(n int64) vec.Vector { return s.queries[s.pick[int(n)%len(s.pick)]] }

// read runs one coalesced search and reports its results and whether
// it failed (an error, fewer than k results, or results out of order).
// A traced read records its request span, the batcher's admission
// wait, and, once per engine batch, the engine's stage spans.
func (s *session) read(q vec.Vector, traced bool, req int64) ([]ann.Neighbor, bool) {
	if !traced {
		res, _, err := s.b.Search(q, s.k)
		return res, err != nil || !wellFormed(res, s.k)
	}
	start := time.Now()
	tr := obs.NewTrace()
	res, info, err := s.b.SearchTraced(q, s.k, tr)
	end := time.Now()
	var rows int64
	if s.deltaRows != nil {
		rows = s.deltaRows()
	}
	sl := s.rc.spans
	id := sl.add("batcher.SearchTraced", 0, req, start, end, 0)
	spans := tr.Spans()
	if _, dup := s.seen.LoadOrStore(info.Engine, true); dup {
		own := spans[:0]
		for _, sp := range spans {
			if sp.Stage == "coalesce_wait" {
				own = append(own, sp)
			}
		}
		spans = own
	}
	sl.addTrace(id, req, start, spans, rows)
	return res, err != nil || !wellFormed(res, s.k)
}

// wellFormed reports whether res holds k results in strictly ascending
// (distance, ID) order with no NaN distance, which also rules out a
// repeated ID.
func wellFormed(res []ann.Neighbor, k int) bool {
	if len(res) != k {
		return false
	}
	for i, n := range res {
		if n.Dist != n.Dist {
			return false
		}
		if i > 0 {
			p := res[i-1]
			if n.Dist < p.Dist || (n.Dist == p.Dist && n.ID <= p.ID) {
				return false
			}
		}
	}
	return true
}

// phaseResult is what the timed phases of a serving workload measured.
type phaseResult struct {
	open        openResult
	traced      []bool
	openSlices  [][]float64
	closed      []closedResult
	meter       meterReading
	batchBefore batcher.Stats
	batchAfter  batcher.Stats
	pages       snapshot.PagedStats
	reads       int64
}

// phases runs warm-up, then the timed phases: an open loop of seeded
// Poisson arrivals at p.OpenRate and a closed loop of Clients requests in
// flight, half of the measured time each. The two alternate in slices
// of one Window each (open, closed, open, ...), so both sample the same
// host conditions and, on read-write, every point of the delta tier's
// fill-and-compact cycle. timedStart and timedEnd, when set, run as the
// timed phases begin and end. On traced runs every other open-loop
// request and every closed-loop request is traced.
func (s *session) phases(p serveParams, timedStart, timedEnd func()) phaseResult {
	rc := s.rc
	n := int(rc.seconds / (2 * p.Window))
	if n < 1 {
		n = 1
	}
	sched := poissonSchedule(subSeed(rc.seed, 2), p.OpenRate, time.Duration(n)*p.Window)
	closedLoop(p.Clients, rc.seconds/10, func(n int64) bool {
		_, bad := s.read(s.query(n), false, 0)
		return bad
	})
	runtime.GC()
	debug.FreeOSMemory()

	var r phaseResult
	r.traced = make([]bool, len(sched))
	pagesBefore, _ := s.e.PageStats()
	r.batchBefore = s.b.Stats()
	m := startMeter()
	if timedStart != nil {
		timedStart()
	}
	first := 0
	var closedReads int64
	for _, part := range sliceSchedule(sched, p.Window, n) {
		base := first
		o := openLoop(part, p.Window, func(i int) bool {
			i += base
			traced := rc.traced && i%2 == 1
			r.traced[i] = traced
			_, bad := s.read(s.query(int64(i)), traced, int64(i+1))
			return bad
		})
		var untraced []float64
		for i, l := range o.LatMS {
			if !r.traced[base+i] {
				untraced = append(untraced, l)
			}
		}
		r.open.merge(o)
		r.openSlices = append(r.openSlices, untraced)
		first += len(part)
		off := closedReads
		c := closedLoop(p.Clients, p.Window, func(n int64) bool {
			_, bad := s.read(s.query(off+n), rc.traced, int64(len(sched))+off+n+1)
			return bad
		})
		r.closed = append(r.closed, c)
		closedReads += c.Done
	}
	if timedEnd != nil {
		timedEnd()
	}
	r.meter = m.end()
	r.batchAfter = s.b.Stats()
	pagesAfter, _ := s.e.PageStats()
	r.pages = snapshot.PagedStats{
		Touches: pagesAfter.Touches - pagesBefore.Touches,
		Faults:  pagesAfter.Faults - pagesBefore.Faults,
	}
	r.reads = int64(len(sched)) + closedReads
	return r
}

// report fills the end-to-end and shared per-layer metrics of a
// serving run from its phases.
func (r phaseResult) report(o *outcome, rc *runCtx, setup []time.Duration) {
	var untraced, traced []float64
	for i, l := range r.open.LatMS {
		if r.traced[i] {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	var setups []float64
	for _, d := range setup {
		setups = append(setups, d.Seconds())
	}
	o.e2e["setup_s"] = median(setups)
	var cpu, p50, p90 []float64
	var closedFailed int64
	for _, c := range r.closed {
		cpu = append(cpu, perCall(c.CPU, c.Done))
		closedFailed += c.Failed
	}
	for _, lat := range r.openSlices {
		if len(lat) > 0 {
			p50 = append(p50, percentile(lat, 0.5))
			p90 = append(p90, percentile(lat, 0.9))
		}
	}
	o.e2e["qps"] = windowMedian(r.closed)
	o.e2e["cpu_us_per_query"] = median(cpu)
	o.e2e["p50_ms"] = median(p50)
	o.e2e["p90_ms"] = median(p90)
	o.e2e["peak_rss_mb"] = r.meter.PeakRSSMB
	o.attempted += r.reads
	o.failed += r.open.Failed + closedFailed
	o.saturated = r.open.Saturated
	o.steal, o.loadAvg = r.meter.StealShare, r.meter.LoadAvg
	o.lagP99 = percentile(r.open.LagMS, 0.99)

	o.layer["loadgen.lag_p99_ms"] = o.lagP99
	o.layer["host.steal_share"] = r.meter.StealShare
	if len(traced) > 0 && len(untraced) > 0 {
		o.layer["obs.trace_overhead"] = median(traced) / median(untraced)
	}
	if b := r.batchAfter.Batches - r.batchBefore.Batches; b > 0 {
		o.layer["batcher.batch_mean"] = float64(r.batchAfter.Queries-r.batchBefore.Queries) / float64(b)
	}
	if r.pages.Touches > 0 {
		o.layer["snapshot.touches_per_query"] = float64(r.pages.Touches) / float64(r.reads)
		o.layer["snapshot.faults_per_query"] = float64(r.pages.Faults) / float64(r.reads)
		o.layer["snapshot.hit_ratio"] = 1 - float64(r.pages.Faults)/float64(r.pages.Touches)
	}
	if rc.traced {
		ls := newLayerStats(rc.spans.snapshot())
		o.layer["batcher.wait_p50_us"] = ls.durP50("coalesce_wait")
		o.layer["engine.fanout_p50_us"] = ls.durP50("fanout")
		o.layer["engine.task_wait_p50_us"] = ls.startLagP50("shard_search")
		o.layer["engine.merge_p50_us"] = ls.durP50("merge")
		o.layer["hnsw.search_p50_us"] = ls.selfP50("shard_search")
		o.layer["delta.scan_p50_us"] = ls.durP50("merge_delta")
		o.layer["delta.ns_per_row"] = ls.nsPerN("merge_delta")
	}
}

// groundTruth is the exact top-k of each query over data.
func groundTruth(m vec.Metric, data, queries []vec.Vector, k int) [][]ann.Neighbor {
	gt := make([][]ann.Neighbor, len(queries))
	for i, q := range queries {
		gt[i] = ann.BruteForce(m, data, q, k)
	}
	return gt
}

// checkRecall reads each recall query through the batcher, checks that
// every returned distance equals the exact distance wherever the ID is
// also an exact neighbor, and returns the results and mean recall@k.
func (s *session) checkRecall(o *outcome, queries []vec.Vector, gt [][]ann.Neighbor) ([][]ann.Neighbor, float64) {
	res := make([][]ann.Neighbor, len(queries))
	var sum float64
	badDist := 0
	for i, q := range queries {
		r, bad := s.read(q, false, 0)
		o.attempted++
		if bad {
			o.failed++
		}
		res[i] = r
		sum += ann.Recall(r, gt[i], s.k)
		exact := map[uint32]float32{}
		for _, n := range gt[i] {
			exact[n.ID] = n.Dist
		}
		for _, n := range r {
			if d, ok := exact[n.ID]; ok && d != n.Dist {
				badDist++
			}
		}
	}
	o.check("exact-distances", badDist == 0, "%d results whose distance differs from the exact one", badDist)
	return res, sum / float64(len(queries))
}

// sameResults counts the queries whose results differ from want in any
// ID or distance bit.
func sameResults(got, want [][]ann.Neighbor) int {
	diff := 0
	for i := range want {
		if i >= len(got) || len(got[i]) != len(want[i]) {
			diff++
			continue
		}
		for j := range want[i] {
			if got[i][j].ID != want[i][j].ID ||
				math.Float32bits(got[i][j].Dist) != math.Float32bits(want[i][j].Dist) {
				diff++
				break
			}
		}
	}
	return diff
}

func buildConfig(seed int64, prof dataset.Profile, shards int) (engine.Config, error) {
	builder, err := engine.BuilderWithOpts("hnsw", prof.Metric, seed, engine.IndexOpts{})
	if err != nil {
		return engine.Config{}, err
	}
	return engine.Config{Shards: shards, Builder: builder,
		Meta: engine.Meta{Algo: "hnsw", Dataset: prof.Name, Seed: seed, Elem: prof.Elem}}, nil
}

// buildTimed builds the engine reps times and returns the last build
// with every build's duration.
func buildTimed(rc *runCtx, data []vec.Vector, cfg engine.Config, reps int) (*engine.Engine, []time.Duration, error) {
	var e *engine.Engine
	var took []time.Duration
	for i := 0; i < reps; i++ {
		if e != nil {
			e.Close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		e, err = engine.New(data, cfg)
		if err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(start))
		rc.spans.add("engine.New", 0, 0, start, start.Add(took[i]), int64(len(data)))
	}
	return e, took, nil
}

// runServe runs serve-ram (paged false) or serve-paged.
func runServe(rc *runCtx, p serveParams, paged bool) (*outcome, error) {
	o := newOutcome()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: p.N, Queries: p.Queries, Seed: rc.seed})
	if err != nil {
		return nil, err
	}
	cfg, err := buildConfig(rc.seed, prof, p.Shards)
	if err != nil {
		return nil, err
	}
	recallQ := d.Queries[:p.RecallQueries]
	gt := groundTruth(prof.Metric, d.Vectors, recallQ, p.K)
	var kern *vec.Kernel
	if rc.traced {
		kern = vec.NewKernel(prof.Metric, vec.NewMatrix(d.Vectors))
	}

	var e *engine.Engine
	var setup []time.Duration
	snapDir := filepath.Join(rc.outDir, fmt.Sprintf("snapshot-seed%d", rc.seed))
	defer os.RemoveAll(snapDir)
	var ref [][]ann.Neighbor
	if !paged {
		e, setup, err = buildTimed(rc, d.Vectors, cfg, rc.reps(p.SetupReps))
		if err != nil {
			return nil, err
		}
	} else {
		e, setup, ref, err = openPaged(rc, p, d.Vectors, cfg, snapDir, recallQ)
		if err != nil {
			return nil, err
		}
		rc.logf("note: serve-paged reads its snapshot through mmap; the OS page cache holds the file, the engine's own cache 1/%d of each shard's pages", p.CacheFrac)
	}
	d.Vectors = nil
	s := newSession(rc, e, p.K, d.Queries)
	defer s.close()

	r := s.phases(p, nil, nil)
	r.report(o, rc, setup)
	res, recall := s.checkRecall(o, recallQ, gt)
	o.e2e["recall_at_10"] = recall
	if paged {
		diff := sameResults(res, ref)
		o.check("paged-equals-ram", diff == 0, "%d of %d recall queries differ from serve-ram", diff, len(ref))
		o.layer["snapshot.load_ms"] = o.e2e["setup_s"] * 1000
	} else {
		direct, _ := e.SearchBatch(recallQ, p.K)
		diff := sameResults(res, direct)
		o.check("batcher-equals-engine", diff == 0, "%d of %d recall queries differ from engine.SearchBatch", diff, len(direct))
		if err := queueModel(rc, o, e, p, recallQ, r.open); err != nil {
			return nil, err
		}
	}
	o.layer["engine.base_k_mean"] = float64(p.K)
	if rc.traced {
		if !paged {
			if err := e.Save(snapDir); err != nil {
				return nil, err
			}
		}
		if err := replayShards(rc, o, snapDir, d.Queries, p.ReplayQueries, p.K); err != nil {
			return nil, err
		}
		kernelBench(rc, o, kern)
	}
	return o, nil
}

// openPaged builds the serve-ram engine, saves it as a snapshot, records
// its results for the recall queries, and then opens the snapshot paged
// SetupReps times (the timed set-up), each shard's page cache holding
// 1/CacheFrac of its pages.
func openPaged(rc *runCtx, p serveParams, data []vec.Vector, cfg engine.Config, dir string, recallQ []vec.Vector) (*engine.Engine, []time.Duration, [][]ann.Neighbor, error) {
	ram, err := engine.New(data, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	ref, _ := ram.SearchBatch(recallQ, p.K)
	err = ram.Save(dir)
	ram.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	probe, _, err := engine.LoadWithOptions(dir, engine.LoadOptions{Serve: engine.ServeMmap})
	if err != nil {
		return nil, nil, nil, err
	}
	st, _ := probe.PageStats()
	shards := probe.Shards()
	probe.Close()
	perShard := int(st.TotalPages) / shards
	cache := (perShard + p.CacheFrac - 1) / p.CacheFrac
	rc.logf("note: %d pages per shard, page cache %d pages per shard", perShard, cache)

	var e *engine.Engine
	var took []time.Duration
	for i := 0; i < rc.reps(p.SetupReps); i++ {
		if e != nil {
			e.Close()
		}
		start := time.Now()
		e, _, err = engine.LoadWithOptions(dir, engine.LoadOptions{Serve: engine.ServeMmap, CachePages: cache})
		if err != nil {
			return nil, nil, nil, err
		}
		took = append(took, time.Since(start))
		rc.spans.add("engine.LoadWithOptions", 0, 0, start, start.Add(took[i]), 0)
	}
	return e, took, ref, nil
}

// queueModel calibrates workload.Simulate's batch runner from measured
// engine.SearchBatch latency per batch size and prints its prediction
// for the open-loop phase's rate and seed beside the measurement. It is
// reported, never gated on.
func queueModel(rc *runCtx, o *outcome, e *engine.Engine, p serveParams, qs []vec.Vector, open openResult) error {
	rate := p.OpenRate
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	lat := make([]time.Duration, len(sizes))
	for i, n := range sizes {
		batch := make([]vec.Vector, n)
		for j := range batch {
			batch[j] = qs[j%len(qs)]
		}
		var ts []float64
		for r := 0; r < p.CalibReps; r++ {
			_, st := e.SearchBatch(batch, p.K)
			ts = append(ts, float64(st.Latency))
		}
		lat[i] = time.Duration(median(ts))
	}
	runner := func(size int) (time.Duration, error) {
		j := sort.SearchInts(sizes, size)
		switch {
		case j == 0:
			return lat[0], nil
		case j >= len(sizes):
			return lat[len(sizes)-1] * time.Duration(size) / time.Duration(sizes[len(sizes)-1]), nil
		}
		lo, hi := sizes[j-1], sizes[j]
		f := float64(size-lo) / float64(hi-lo)
		return lat[j-1] + time.Duration(f*float64(lat[j]-lat[j-1])), nil
	}
	n := len(open.LatMS)
	if n == 0 {
		return nil
	}
	pred, err := workload.Simulate(workload.Config{
		ArrivalRate: rate, Requests: n, MaxBatch: batcher.DefaultMaxBatch,
		FlushAfter: batcher.DefaultMaxWait, Seed: subSeed(rc.seed, 2),
	}, runner)
	if err != nil {
		return err
	}
	o.layer["queue_model.p50_ms"] = ms(pred.P50)
	o.layer["queue_model.p95_ms"] = ms(pred.P95)
	rc.logf("queue-model: measured p50 %.3f ms p90 %.3f ms; workload.Simulate predicts p50 %.3f ms p95 %.3f ms at %.0f req/s (batch-1 %.3f ms, batch-256 %.3f ms)",
		percentile(open.LatMS, 0.5), percentile(open.LatMS, 0.9), ms(pred.P50), ms(pred.P95), rate, ms(lat[0]), ms(lat[len(lat)-1]))
	return nil
}

func readManifest(dir string) (*engine.Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, engine.ManifestName))
	if err != nil {
		return nil, err
	}
	var m engine.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", engine.ManifestName, err)
	}
	return &m, nil
}

// replayShards loads each shard of the snapshot in dir as an
// ann.Index and replays queries through SearchTraced, counting the
// traversal's hops (expansions), distance evaluations and distinct
// vertices per search. The snapshot is the engine's own Save, which
// answers byte-identically to the serving shards.
func replayShards(rc *runCtx, o *outcome, dir string, queries []vec.Vector, nq, k int) error {
	man, err := readManifest(dir)
	if err != nil {
		return err
	}
	var hops, evals, unique, searches int64
	for _, f := range man.Files {
		idx, err := snapshot.LoadFile(filepath.Join(dir, f.Name))
		if err != nil {
			return err
		}
		ai, ok := idx.(ann.Index)
		if !ok {
			return fmt.Errorf("shard %s is not a graph index", f.Name)
		}
		for _, q := range queries[:min(nq, len(queries))] {
			start := time.Now()
			_, tr := ai.SearchTraced(q, k)
			rc.spans.add("hnsw.SearchTraced", 0, 0, start, time.Now(), int64(tr.Length()))
			hops += int64(len(tr.Iters))
			evals += int64(tr.Length())
			unique += int64(tr.Unique())
			searches++
		}
	}
	if searches > 0 && evals > 0 {
		o.layer["hnsw.hops_per_search"] = float64(hops) / float64(searches)
		o.layer["hnsw.dist_evals_per_search"] = float64(evals) / float64(searches)
		o.layer["hnsw.unique_ratio"] = float64(unique) / float64(evals)
	}
	return nil
}

// kernelBench times Kernel.DistsTo over a seeded set of corpus rows and
// reports nanoseconds per distance (the median of five passes).
func kernelBench(rc *runCtx, o *outcome, k *vec.Kernel) {
	mat := k.Matrix()
	rng := rand.New(rand.NewSource(subSeed(rc.seed, 7)))
	rows := make([]uint32, 4096)
	for i := range rows {
		rows[i] = uint32(rng.Intn(mat.Rows()))
	}
	qs := make([]vec.PreparedQuery, 32)
	for i := range qs {
		qs[i] = k.Prepare(mat.Row(rng.Intn(mat.Rows())))
	}
	out := make([]float32, len(rows))
	var pass []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for _, q := range qs {
			k.DistsTo(q, rows, out)
		}
		end := time.Now()
		rc.spans.add("vec.Kernel.DistsTo", 0, 0, start, end, int64(len(qs)*len(rows)))
		pass = append(pass, float64(end.Sub(start).Nanoseconds())/float64(len(qs)*len(rows)))
	}
	o.layer["vec.l2_ns_per_dist"] = median(pass)
}
