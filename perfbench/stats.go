package main

import (
	"math"
	"sort"
	"sync"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile. With fewer, the "percentile" is one or two outliers'
// opinion, so the benchmark refuses to report it as an end-to-end
// figure and flags it in the per-layer table.
const minBeyond = 10

// rank returns the 1-based nearest-rank position of quantile p in n
// sorted samples. The small epsilon keeps float error in p·n (0.99·1000
// is not exactly 990 in binary) from pushing the rank one place up.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank p-quantile of ascending samples and
// how many samples lie beyond it.
func quantile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := rank(p, n)
	return sorted[r-1], n - r
}

// supported reports whether n samples leave at least minBeyond samples
// beyond the p-quantile.
func supported(p float64, n int) bool {
	if n == 0 {
		return false
	}
	return n-rank(p, n) >= minBeyond
}

// recorder collects one population of measurements (durations in
// nanoseconds, or any other int64). It is bounded: past its capacity
// further samples are counted but not kept, so a run cannot grow memory
// without limit. The backing array is allocated up front, outside any
// heap measurement.
type recorder struct {
	mu      sync.Mutex
	v       []int64
	sum     int64
	max     int64
	n       int64 // every add, kept or not
	dropped int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{v: make([]int64, 0, capacity)}
}

func (r *recorder) add(x int64) {
	r.mu.Lock()
	r.n++
	r.sum += x
	if x > r.max || r.n == 1 {
		r.max = x
	}
	if len(r.v) < cap(r.v) {
		r.v = append(r.v, x)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// summary is a population's sample count, mean and quantiles, scaled
// into the reporting unit.
type summary struct {
	N        int
	Dropped  int64
	Mean     float64
	Max      float64 // over every add
	P50, P99 float64
	// P99OK is false when fewer than minBeyond samples lie beyond P99.
	P99OK bool
}

// summarize scales the kept samples by 1/div (e.g. 1e3 for ns → µs).
func (r *recorder) summarize(div float64) summary {
	r.mu.Lock()
	vals := make([]float64, len(r.v))
	for i, x := range r.v {
		vals[i] = float64(x) / div
	}
	s := summary{N: len(vals), Dropped: r.dropped}
	if r.n > 0 {
		s.Mean = float64(r.sum) / float64(r.n) / div
		s.Max = float64(r.max) / div
	}
	r.mu.Unlock()
	sort.Float64s(vals)
	s.P50, _ = quantile(vals, 0.50)
	s.P99, _ = quantile(vals, 0.99)
	s.P99OK = supported(0.99, len(vals))
	return s
}

// total returns the sum and count of every add.
func (r *recorder) total() (sum, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum, r.n
}

// median of a small set (setup rounds).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := quantile(s, 0.5)
	if len(s)%2 == 0 && len(s) > 0 {
		v = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return v
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
