package main

import (
	"math"
	"testing"
)

func TestRankIsNearestRank(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{0.99, 1000, 990}, // 0.99·1000 is 990.0000000000001 in binary
		{0.99, 999, 990},
		{0.99, 100, 99},
		{0.5, 10, 5},
		{0.5, 11, 6},
		{0.5, 1, 1},
		{1, 7, 7},
		{0, 7, 1},
	}
	for _, c := range cases {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%v, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestQuantileCountsSamplesBeyond(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	v, beyond := quantile(s, 0.99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Fatalf("empty quantile = %v, %d", v, beyond)
	}
}

// The percentile rule: a percentile is reported only when at least
// minBeyond samples lie beyond it, and the sample count says so.
func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if !supported(0.99, 1000) || supported(0.99, 999) {
		t.Fatal("p99 must need exactly 1000 samples")
	}
	if got := minSamples(0.99); got != 1000 {
		t.Fatalf("minSamples(0.99) = %d, want 1000", got)
	}
	if got := minSamples(0.5); got != 20 {
		t.Fatalf("minSamples(0.5) = %d, want 20", got)
	}
	if supported(0.5, 0) {
		t.Fatal("no samples support no percentile")
	}
	r := newRecorder(2000)
	for i := 1; i <= 999; i++ {
		r.add(int64(i) * 1000)
	}
	if s := r.summarize(1e3); s.P99OK || s.N != 999 {
		t.Fatalf("999 samples: P99OK=%v N=%d", s.P99OK, s.N)
	}
	r.add(1000 * 1000)
	s := r.summarize(1e3)
	if !s.P99OK || s.P99 != 990 || s.P50 != 500 {
		t.Fatalf("1000 samples: P99OK=%v p99=%v p50=%v", s.P99OK, s.P99, s.P50)
	}
}

func TestRecorderIsBounded(t *testing.T) {
	r := newRecorder(3)
	for _, x := range []int64{5, 1, 3, 100, 200} {
		r.add(x)
	}
	s := r.summarize(1)
	if s.N != 3 || s.Dropped != 2 {
		t.Fatalf("kept %d, dropped %d; want 3, 2", s.N, s.Dropped)
	}
	if math.Abs(s.Mean-61.8) > 1e-9 {
		t.Fatalf("mean %v covers every add, want 61.8", s.Mean)
	}
	if sum, n := r.total(); sum != 309 || n != 5 {
		t.Fatalf("total = %d over %d", sum, n)
	}
}

// minSamples is the smallest population for which the p-quantile is
// supported.
func minSamples(p float64) int {
	n := 1
	for !supported(p, n) {
		n++
	}
	return n
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
}
