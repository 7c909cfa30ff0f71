package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"specmatch/internal/xrand"
)

// summary is an exact distribution summary: quantiles are samples picked by
// nearest rank from the sorted set, never interpolated bucket estimates.
type summary struct {
	N             int
	P50, P99, Max float64
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it. Zero when
// there are no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// summarize sorts a copy of xs and reads its quantiles.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.50), P99: quantile(s, 0.99)}
	if len(s) > 0 {
		out.Max = s[len(s)-1]
	}
	return out
}

// median returns the middle sample (the lower middle for even counts, so the
// value is always one that was measured).
func median(xs []float64) float64 { return summarize(xs).P50 }

// windowedP99 orders samples by arrival, splits them into consecutive
// windows of at least size samples (so each p99 has at least size/100
// samples beyond it), and returns the median of the windows' p99s and the
// window count. One stall then moves one window's p99, not the result;
// fewer than size samples make a single window.
func windowedP99(lat []float64, at []time.Duration, size int) (float64, int) {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return at[idx[a]] < at[idx[b]] })
	k := max(1, len(lat)/size)
	p99s := make([]float64, 0, k)
	for c := 0; c < k; c++ {
		var w []float64
		for _, i := range idx[c*len(idx)/k : (c+1)*len(idx)/k] {
			w = append(w, lat[i])
		}
		p99s = append(p99s, summarize(w).P99)
	}
	return median(p99s), k
}

// eventRate is the median of a phase's per-second event counts over its
// full seconds, or its mean rate when it lasts under a second.
func eventRate(st *phaseStats, length time.Duration) (float64, int) {
	full := min(int(length/time.Second), len(st.perSecond))
	if full == 0 {
		return float64(st.events) / length.Seconds(), 1
	}
	xs := make([]float64, full)
	for i := range xs {
		xs[i] = float64(st.perSecond[i])
	}
	return median(xs), full
}

// poisson yields one open-loop sender's due times as offsets from the phase
// origin: exponential gaps at a fixed mean rate drawn from a seeded stream.
// A fixed-interval schedule phase-locks with the WAL's 2 ms fsync ticker,
// which makes paced latency swing between otherwise identical runs.
type poisson struct {
	r       *rand.Rand
	meanGap float64 // nanoseconds
	t       time.Duration
}

func newPoisson(seed int64, perSecond float64) *poisson {
	return &poisson{r: xrand.New(seed), meanGap: 1e9 / perSecond}
}

// next advances to and returns the next due offset.
func (p *poisson) next() time.Duration {
	p.t += time.Duration(p.r.ExpFloat64() * p.meanGap)
	return p.t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
