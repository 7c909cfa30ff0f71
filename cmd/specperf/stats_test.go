package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileIsAnExactSample(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.P99 != 99 || s.Max != 100 {
		t.Fatalf("summary of 1..100 = %+v, want N=100 P50=50 P99=99 Max=100", s)
	}
	if xs[0] != 100 {
		t.Fatalf("summarize sorted its input in place")
	}
	cases := []struct {
		in     []float64
		q, out float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.5, 1}, // nearest rank: the lower middle, a measured value
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9},
	}
	for _, c := range cases {
		if got := quantile(c.in, c.q); got != c.out {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.in, c.q, got, c.out)
		}
	}
	// Interpolating estimators would report 1.5 here; an exact one never
	// reports a value nobody measured.
	if m := median([]float64{1, 2, 3, 4}); m != 2 {
		t.Errorf("median of 1..4 = %v, want 2", m)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a, b, c := newPoisson(42, 500), newPoisson(42, 500), newPoisson(43, 500)
	differ := false
	var last time.Duration
	const draws = 20000
	for i := 0; i < draws; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("draw %d: same seed gave %v and %v", i, x, y)
		}
		if x < last {
			t.Fatalf("draw %d: due times went backwards (%v after %v)", i, x, last)
		}
		differ = differ || x != z
		last = x
	}
	if !differ {
		t.Fatalf("seeds 42 and 43 gave identical schedules")
	}
	// 500/s means a 2 ms mean gap; 20000 exponential gaps put the mean within
	// a few percent.
	mean := last.Seconds() / draws
	if math.Abs(mean-0.002)/0.002 > 0.05 {
		t.Fatalf("mean gap %.6fs, want about 0.002s", mean)
	}
}
