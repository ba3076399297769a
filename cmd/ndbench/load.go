package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openResult is one open-loop phase: per-request latency measured from
// the request's due time (so a stall also charges the requests queued
// behind it), how late the generator issued each request, and whether
// the backlog grew.
type openResult struct {
	LatMS     []float64
	LagMS     []float64
	Failed    int64
	Saturated bool
}

// maxOutstanding bounds open-loop requests in flight; past it the
// generator blocks, its lag grows, and the phase reports saturation.
const maxOutstanding = 4096

// openLoop issues do(i) at start+sched[i] for every i, each on its own
// goroutine, waits until dur has passed and every request returned. do
// reports whether the request failed. The phase is saturated when, at
// the end of the schedule, more than a quarter second of arrivals is
// still queued or the generator ran more than saturationLag late: the
// system was not keeping up with the offered rate, so its latencies
// describe a growing queue.
func openLoop(sched []time.Duration, dur time.Duration, do func(i int) bool) openResult {
	n := len(sched)
	r := openResult{LatMS: make([]float64, n), LagMS: make([]float64, n)}
	failed := make([]bool, n)
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		r.LagMS[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			failed[i] = do(i)
			r.LatMS[i] = ms(time.Since(due))
			<-sem
		}(i, due)
	}
	queued := len(sem)
	wg.Wait()
	if d := time.Until(start.Add(dur)); d > 0 {
		time.Sleep(d)
	}
	for _, f := range failed {
		if f {
			r.Failed++
		}
	}
	rate := float64(n) / dur.Seconds()
	r.Saturated = float64(queued) > rate/4 || percentile(r.LagMS, 0.99) > ms(saturationLag)
	return r
}

// merge appends another slice's results.
func (r *openResult) merge(o openResult) {
	r.LatMS = append(r.LatMS, o.LatMS...)
	r.LagMS = append(r.LagMS, o.LagMS...)
	r.Failed += o.Failed
	r.Saturated = r.Saturated || o.Saturated
}

const saturationLag = 250 * time.Millisecond

// closedResult is one closed-loop phase: the requests it completed,
// how long it took from the first request until the last one returned,
// and the CPU time the process spent in that span.
type closedResult struct {
	Done    int64
	Failed  int64
	Elapsed time.Duration
	CPU     time.Duration
}

// closedLoop keeps clients requests in flight for dur: each client
// issues do(n) as soon as its previous request completes, with n a
// phase-wide request counter, until dur has passed; the phase then
// waits for the requests still in flight. Counting those and the time
// they take keeps the rate from depending on where the deadline falls
// within a round of coalesced requests.
func closedLoop(clients int, dur time.Duration, do func(n int64) bool) closedResult {
	var next, done, failed atomic.Int64
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if do(next.Add(1) - 1) {
					failed.Add(1)
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return closedResult{Done: done.Load(), Failed: failed.Load(),
		Elapsed: time.Since(start), CPU: cpuTime() - cpu0}
}

// sliceSchedule cuts an open-loop schedule into n consecutive slices of length
// d, each rebased to start at zero.
func sliceSchedule(sched []time.Duration, d time.Duration, n int) [][]time.Duration {
	out := make([][]time.Duration, n)
	for _, t := range sched {
		j := int(t / d)
		if j < n {
			out[j] = append(out[j], t-time.Duration(j)*d)
		}
	}
	return out
}
