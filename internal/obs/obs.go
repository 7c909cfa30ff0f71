// Package obs is the repo's dependency-free observability subsystem: atomic
// counters, gauges, and fixed-bucket histograms behind a named registry.
// Every layer that does real work — the synchronous engine (internal/core),
// the asynchronous agents (internal/agent), the simulated network
// (internal/simnet), and the TCP transport (internal/wire) — publishes into
// a caller-supplied *Registry, so one registry threaded through a run yields
// a coherent snapshot of where rounds went, what each protocol phase cost in
// messages, and what fault injection actually did.
//
// Disabled is the default and costs (almost) nothing: a nil *Registry hands
// out nil metric handles, and every metric method is a nil-guarded no-op —
// the same idiom as trace.Recorder. Enabled metrics are safe for concurrent
// use; counters and gauges are single atomic words, so parallel experiment
// replications and the TCP runtime's per-node goroutines update them
// freely. The canonical metric names per layer are listed in PROTOCOL.md
// ("Metric names") so alternative transports can instrument identically.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is
// valid and discards everything.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on nil.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge is valid and
// discards everything.
type Gauge struct {
	v atomic.Int64
}

// Set stores n. No-op on nil.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds delta (negative to decrement). No-op on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value; zero on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations. Bucket i
// counts observations v with v <= bounds[i]; one implicit overflow bucket
// catches the rest. A nil *Histogram is valid and discards everything.
type Histogram struct {
	bounds []float64      // ascending upper bounds
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// TimeBuckets is the default bucket layout for durations in seconds:
// 1µs … ~16s in powers of four.
func TimeBuckets() []float64 {
	return []float64{1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3, 16e-3, 64e-3, 256e-3, 1, 4, 16}
}

// LatencyBuckets is a finer layout for request latencies: 50µs … 20s in
// ×1.25 steps (58 buckets), which bounds Quantile's interpolation error to
// ~12% — tight enough for load-test percentiles without tracking every
// sample.
func LatencyBuckets() []float64 {
	out := make([]float64, 0, 64)
	for v := 50e-6; v < 20; v *= 1.25 {
		out = append(out, v)
	}
	return out
}

// Observe records one value. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations; zero on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; zero on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts:
// the crossing bucket is found by cumulative rank and the value linearly
// interpolated within its bounds (from zero for the first bucket). The
// overflow bucket has no upper bound, so it reports the largest finite
// bound. Zero on nil or empty histograms. The shared-histogram +
// Quantile pair replaces keeping (and sorting) every raw sample, which is
// what the load generator does across its workers.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantile(q, h.bounds, counts)
}

// quantile is the shared estimator over (bounds, counts-with-overflow).
func quantile(q float64, bounds []float64, counts []int64) float64 {
	if len(bounds) == 0 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(bounds) { // overflow bucket: no finite upper bound
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (bounds[i]-lo)*frac
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// Registry is a named metric namespace. The zero value is not usable;
// construct with NewRegistry. A nil *Registry is valid: it hands out nil
// metric handles, so instrumented code never branches on "metrics on?".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the first layout; bounds must be
// ascending). Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below the upper bound. UpperBound is +Inf for the overflow bucket.
type Bucket struct {
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the bound Prometheus-style, as the string "+Inf" for
// the overflow bucket (encoding/json rejects the raw infinity).
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}{LE: le, Count: b.Count})
}

// UnmarshalJSON is the inverse of MarshalJSON, so clients of the HTTP
// snapshot endpoints (specload's reconciliation pass, the end-to-end
// harness in internal/e2e) can decode a /debug/metrics payload back into a
// Snapshot.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	if raw.LE == "" || raw.LE == "+Inf" {
		b.UpperBound = math.Inf(1)
		return nil
	}
	v, err := strconv.ParseFloat(raw.LE, 64)
	if err != nil {
		return fmt.Errorf("obs: bucket bound %q: %w", raw.LE, err)
	}
	b.UpperBound = v
	return nil
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile from the snapshot's buckets, with the
// same interpolation as Histogram.Quantile — so a /debug/metrics client can
// compute percentiles from the wire form.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	bounds := make([]float64, 0, len(s.Buckets))
	counts := make([]int64, 0, len(s.Buckets))
	for _, b := range s.Buckets {
		if !math.IsInf(b.UpperBound, 1) {
			bounds = append(bounds, b.UpperBound)
		}
		counts = append(counts, b.Count)
	}
	return quantile(q, bounds, counts)
}

// Snapshot is a point-in-time copy of a registry, ready for JSON encoding
// (expvar-style: one object keyed by metric name per metric kind).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call while metrics
// are being updated; each metric is read atomically (the snapshot as a
// whole is not a consistent cut, which JSON debugging never needs). Returns
// the zero Snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count:   h.Count(),
				Sum:     h.Sum(),
				Buckets: make([]Bucket, len(h.counts)),
			}
			for i := range h.counts {
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				hs.Buckets[i] = Bucket{UpperBound: ub, Count: h.counts[i].Load()}
			}
			s.Histograms[name] = hs
		}
	}
	return s
}

// CounterValue returns the named counter's value without creating it; zero
// when absent or on a nil registry. Snapshot-free convenience for tests.
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name].Value()
}

// GaugeValue returns the named gauge's value without creating it; zero when
// absent or on a nil registry.
func (r *Registry) GaugeValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name].Value()
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
