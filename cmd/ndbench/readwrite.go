package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

// rwParams sizes read-write: an in-RAM HNSW engine with the background
// compactor at its default threshold, reads as in serve-ram, and a
// seeded open-loop writer beside them.
type rwParams struct {
	serveParams
	// WriteRate is the writer's offered rate (writes/s). Of the writes,
	// InsertShare upsert new IDs, OverwriteShare upsert base IDs with a
	// new vector, and the rest delete a live ID.
	WriteRate                   float64
	InsertShare, OverwriteShare float64
	// Pool is the number of generated vectors writes draw from.
	Pool int
	// SampleEvery is the MutStats sampling period.
	SampleEvery time.Duration
}

func defaultReadWrite() rwParams {
	p := defaultServe()
	p.N = 1000
	p.OpenRate = 150
	return rwParams{serveParams: p, WriteRate: 250, InsertShare: 0.3, OverwriteShare: 0.4,
		Pool: 4096, SampleEvery: 50 * time.Millisecond}
}

// liveModel is the benchmark's own record of the live set: every
// applied write updates it, so at quiescence it says which IDs must be
// served and with which vector.
type liveModel struct {
	vecs map[uint32]vec.Vector
	ids  []uint32
	pos  map[uint32]int
}

func newLiveModel(base []vec.Vector) *liveModel {
	m := &liveModel{vecs: map[uint32]vec.Vector{}, pos: map[uint32]int{}}
	for i, v := range base {
		m.set(uint32(i), v)
	}
	return m
}

func (m *liveModel) set(id uint32, v vec.Vector) {
	if _, ok := m.vecs[id]; !ok {
		m.pos[id] = len(m.ids)
		m.ids = append(m.ids, id)
	}
	m.vecs[id] = v
}

func (m *liveModel) del(id uint32) {
	i := m.pos[id]
	last := m.ids[len(m.ids)-1]
	m.ids[i] = last
	m.pos[last] = i
	m.ids = m.ids[:len(m.ids)-1]
	delete(m.pos, id)
	delete(m.vecs, id)
}

// sorted returns the live IDs ascending and their vectors.
func (m *liveModel) sorted() ([]uint32, []vec.Vector) {
	ids := append([]uint32(nil), m.ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	vs := make([]vec.Vector, len(ids))
	for i, id := range ids {
		vs[i] = m.vecs[id]
	}
	return ids, vs
}

// writeOp is one write: a delete of id, or an upsert of id to v.
type writeOp struct {
	del bool
	id  uint32
	v   vec.Vector
}

// writeGen draws the seeded write sequence and applies each write to
// the model as it is drawn, so the model always matches the writes
// handed out.
type writeGen struct {
	rng        *rand.Rand
	model      *liveModel
	base       int
	nextID     uint32
	pool       []vec.Vector
	ins, over  float64
	minLiveIDs int
}

func (g *writeGen) next() writeOp {
	u := g.rng.Float64()
	v := g.pool[g.rng.Intn(len(g.pool))]
	switch {
	case u < g.ins || len(g.model.ids) <= g.minLiveIDs:
		id := g.nextID
		g.nextID++
		g.model.set(id, v)
		return writeOp{id: id, v: v}
	case u < g.ins+g.over:
		// An overwrite never revives a deleted ID: that would be an
		// insert, and the live set would drift upward over the run.
		id := uint32(g.rng.Intn(g.base))
		if _, live := g.model.vecs[id]; !live {
			id = g.model.ids[g.rng.Intn(len(g.model.ids))]
		}
		g.model.set(id, v)
		return writeOp{id: id, v: v}
	default:
		id := g.model.ids[g.rng.Intn(len(g.model.ids))]
		g.model.del(id)
		return writeOp{del: true, id: id}
	}
}

// writer applies the write sequence on a seeded Poisson schedule until
// stopped, one write at a time, timing each from its due time.
type writer struct {
	e      *engine.Engine
	gen    *writeGen
	rate   float64
	seed   int64
	rc     *runCtx
	record atomic.Bool
	stop   chan struct{}
	done   chan struct{}
	// latUS and the counters are written by the writer goroutine and
	// read after done is closed.
	latUS            []float64
	attempted, fails int64
}

func (w *writer) start() {
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go w.loop()
}

// halt stops the writer and waits for it to exit.
func (w *writer) halt() {
	close(w.stop)
	<-w.done
}

func (w *writer) loop() {
	defer close(w.done)
	rng := rand.New(rand.NewSource(w.seed))
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	start := time.Now()
	var at time.Duration
	for {
		at += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-w.stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-w.stop:
				return
			default:
			}
		}
		op := w.gen.next()
		t0 := time.Now()
		var err error
		name := "engine.Upsert"
		if op.del {
			name = "engine.Delete"
			var removed bool
			removed, err = w.e.Delete(op.id)
			if err == nil && !removed {
				err = errors.New("delete of a live ID removed nothing")
			}
		} else {
			err = w.e.Upsert(op.id, op.v)
		}
		end := time.Now()
		w.rc.spans.add(name, 0, 0, t0, end, 0)
		w.attempted++
		if err != nil {
			w.fails++
		}
		if w.record.Load() {
			w.latUS = append(w.latUS, usec(end.Sub(due)))
		}
	}
}

// mutSampler samples engine.MutStats while the timed phases run.
type mutSampler struct {
	samples  []engine.MutStats
	compacts []float64
	stop     chan struct{}
	done     chan struct{}
}

func sampleMut(e *engine.Engine, every time.Duration, rc *runCtx) *mutSampler {
	s := &mutSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		last := e.MutStats().Compactions
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			st := e.MutStats()
			s.samples = append(s.samples, st)
			if st.Compactions != last {
				last = st.Compactions
				s.compacts = append(s.compacts, st.LastCompactDuration.Seconds())
				end := time.Now()
				rc.spans.add("engine.Compact", 0, 0, end.Add(-st.LastCompactDuration), end, int64(st.LastCompactVectors))
			}
		}
	}()
	return s
}

func (s *mutSampler) halt() {
	close(s.stop)
	<-s.done
}

// runReadWrite runs the read-write workload.
func runReadWrite(rc *runCtx, p rwParams) (*outcome, error) {
	o := newOutcome()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: p.N + p.Pool, Queries: p.Queries, Seed: rc.seed})
	if err != nil {
		return nil, err
	}
	base, pool := d.Vectors[:p.N], d.Vectors[p.N:]
	cfg, err := buildConfig(rc.seed, prof, p.Shards)
	if err != nil {
		return nil, err
	}
	var kern *vec.Kernel
	if rc.traced {
		kern = vec.NewKernel(prof.Metric, vec.NewMatrix(base))
	}
	e, setup, err := buildTimed(rc, base, cfg, rc.reps(p.SetupReps))
	if err != nil {
		return nil, err
	}
	comp := engine.NewCompactor(e, 0)
	s := newSession(rc, e, p.K, d.Queries)
	s.deltaRows = func() int64 { return int64(e.MutStats().DeltaLive) }
	compactorOpen := true
	defer func() {
		if compactorOpen {
			comp.Close()
		}
		s.close()
	}()

	model := newLiveModel(base)
	w := &writer{
		e: e, rate: p.WriteRate, seed: subSeed(rc.seed, 3), rc: rc,
		gen: &writeGen{rng: rand.New(rand.NewSource(subSeed(rc.seed, 4))), model: model,
			base: p.N, nextID: uint32(p.N), pool: pool, ins: p.InsertShare, over: p.OverwriteShare,
			minLiveIDs: p.N / 2},
	}
	w.start()
	var samp *mutSampler
	var runs0 int64
	r := s.phases(p.serveParams, func() {
		w.record.Store(true)
		runs0 = comp.Runs()
		samp = sampleMut(e, p.SampleEvery, rc)
	}, func() {
		w.halt()
		samp.halt()
	})
	runs := comp.Runs() - runs0
	r.report(o, rc, setup)
	o.attempted += w.attempted
	o.failed += w.fails
	o.check("writes", w.fails == 0, "%d of %d writes failed", w.fails, w.attempted)
	rc.logf("read-write: %d writes, %d compactions during the timed phases, %d live vectors at the end", w.attempted, runs, e.Len())

	// Quiescence: the writer has stopped; wait out any compaction the
	// last writes triggered, then check the served set against the model
	// with the delta tier still populated.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := e.MutStats()
		if !st.Compacting && e.DeltaPressure() < comp.Threshold() {
			break
		}
		if time.Now().After(deadline) {
			o.check("quiescence", false, "compaction did not drain within 2 minutes")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	recallQ := d.Queries[:p.RecallQueries]
	checkLive(o, s, prof.Metric, model, recallQ, "live-before-drain")
	comp.Close()
	compactorOpen = false
	if err := e.Compact(); err != nil && !errors.Is(err, engine.ErrCompacting) {
		return nil, err
	}
	res := checkLive(o, s, prof.Metric, model, recallQ, "live-after-drain")
	ids, vs := model.sorted()
	var sum float64
	for i, q := range recallQ {
		gt := ann.BruteForce(prof.Metric, vs, q, p.K)
		for j := range gt {
			gt[j].ID = ids[gt[j].ID]
		}
		sum += ann.Recall(res[i], gt, p.K)
	}
	o.e2e["recall_at_10"] = sum / float64(len(recallQ))

	writeLatency(o, w.latUS)
	mutLayers(o, p.K, samp, runs)
	if rc.traced {
		dir := filepath.Join(rc.outDir, fmt.Sprintf("snapshot-rw-seed%d", rc.seed))
		if err := e.Save(dir); err != nil {
			return nil, err
		}
		err := replayShards(rc, o, dir, d.Queries, p.ReplayQueries, p.K)
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		kernelBench(rc, o, kern)
	}
	return o, nil
}

// checkLive reads every query and checks each result against the
// model: the ID must be live, and its distance must be the distance to
// the ID's current vector (a stale, overwritten vector shows as a
// different distance).
func checkLive(o *outcome, s *session, m vec.Metric, model *liveModel, queries []vec.Vector, name string) [][]ann.Neighbor {
	out := make([][]ann.Neighbor, len(queries))
	var dead, stale int
	for i, q := range queries {
		res, bad := s.read(q, false, 0)
		out[i] = res
		o.attempted++
		pq := vec.PrepareQuery(m, q)
		for _, n := range res {
			v, ok := model.vecs[n.ID]
			switch {
			case !ok:
				dead++
				bad = true
			case pq.DistanceTo(v) != n.Dist:
				stale++
				bad = true
			}
		}
		if bad {
			o.failed++
		}
	}
	o.check(name, dead == 0 && stale == 0, "%d deleted and %d stale results over %d queries", dead, stale, len(queries))
	return out
}

func writeLatency(o *outcome, lat []float64) {
	o.layer["engine.write_p50_us"] = percentile(lat, 0.5)
	o.layer["engine.write_p90_us"] = percentile(lat, 0.9)
}

// mutLayers reports the delta tier, the widening it causes and the
// compactor from the MutStats samples.
func mutLayers(o *outcome, k int, s *mutSampler, runs int64) {
	var rows, shadows, tombs []float64
	for _, st := range s.samples {
		sh := float64(st.DeltaLive + st.DeltaTombstones)
		rows = append(rows, float64(st.DeltaLive))
		shadows = append(shadows, sh)
		tombs = append(tombs, float64(st.BaseTombstones))
	}
	o.layer["delta.rows_mean"] = mean(rows)
	o.layer["delta.shadows_mean"] = mean(shadows)
	o.layer["engine.base_k_mean"] = float64(k) + mean(shadows)
	if sh := mean(shadows); sh > 0 {
		o.layer["engine.widen_useful_ratio"] = mean(tombs) / sh
	}
	o.layer["compactor.runs"] = float64(runs)
	o.layer["compactor.compact_s"] = median(s.compacts)
}
