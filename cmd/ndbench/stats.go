package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1):
// the smallest sample with at least p·len(xs) samples at or below it.
// It never interpolates, so the result is always a measured value. xs
// is not modified; an empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the nearest-rank 0.5-quantile (the lower middle sample of
// an even-sized input).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		//ndvet:ignore kernelpurity a mean of measured samples, not a reduction over vector elements
		s += x
	}
	return s / float64(len(xs))
}

// windowMedian is the median over windows of each window's rate:
// its completions over its duration. A stall that hits one window moves
// the result by at most one rank.
func windowMedian(w []closedResult) float64 {
	rates := make([]float64, 0, len(w))
	for _, r := range w {
		if r.Elapsed > 0 {
			rates = append(rates, float64(r.Done)/r.Elapsed.Seconds())
		}
	}
	return median(rates)
}

// poissonSchedule returns the due offsets of a Poisson arrival process
// at rate per second over [0, dur). It draws exponential gaps exactly as
// workload.Simulate does, so the queueing model replays the same
// arrivals for the same seed and rate.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		out = append(out, t)
	}
}

// subSeed derives a stream seed from the run seed, so the query choice,
// each schedule and the kernel's row sample draw from generators
// independent of the dataset's.
func subSeed(seed int64, stream int64) int64 {
	return seed*1_000_003 + stream
}

// perCall divides a CPU duration over n completed operations, in
// microseconds.
func perCall(cpu time.Duration, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return usec(cpu) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usec(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
