package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
)

// TestNilRegistryAndMetrics: the disabled path — nil registry, nil handles —
// must be a total no-op, never a panic.
func TestNilRegistryAndMetrics(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter should read 0")
	}
	g := r.Gauge("y")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge should read 0")
	}
	h := r.Histogram("z", TimeBuckets())
	h.Observe(0.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram should read 0")
	}
	if snap := r.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Error("nil registry snapshot should be empty")
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 || r.CounterNames() != nil {
		t.Error("nil registry accessors should read zero values")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("msgs") != c {
		t.Error("same name should return the same counter")
	}
	if r.CounterValue("msgs") != 5 || r.CounterValue("absent") != 0 {
		t.Error("CounterValue mismatch")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	if names := r.CounterNames(); !reflect.DeepEqual(names, []string{"msgs"}) {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 106.5; got != want {
		t.Errorf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot().Histograms["lat"]
	wantCounts := []int64{2, 1, 1} // ≤1: {0.5, 1}; ≤10: {5}; overflow: {100}
	for i, b := range snap.Buckets {
		if b.Count != wantCounts[i] {
			t.Errorf("bucket %d = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(snap.Buckets[2].UpperBound, 1) {
		t.Error("last bucket should be the +Inf overflow")
	}
}

// TestSnapshotJSON: a snapshot with an overflow bucket must marshal (the
// raw +Inf would be rejected by encoding/json).
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("b").Set(2)
	r.Histogram("c", []float64{1}).Observe(3)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				r.Counter("n").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", []float64{0.5}).Observe(1)
			}
		}(w)
	}
	wg.Wait()
	total := int64(workers * perWorker)
	if got := r.CounterValue("n"); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	if got := r.GaugeValue("g"); got != total {
		t.Errorf("gauge = %d, want %d", got, total)
	}
	h := r.Histogram("h", nil)
	if h.Count() != total || h.Sum() != float64(total) {
		t.Errorf("histogram count/sum = %d/%v, want %d", h.Count(), h.Sum(), total)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("handler body: %v", err)
	}
	if snap.Counters["hits"] != 3 {
		t.Errorf("handler counters = %v", snap.Counters)
	}
	// A nil registry serves an empty object rather than erroring.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Errorf("nil-registry handler status = %d", rec.Code)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	// 100 observations uniform in (0,1]: every quantile lands in the first
	// bucket and interpolates linearly from 0 to 1.
	for k := 1; k <= 100; k++ {
		h.Observe(float64(k) / 100)
	}
	if got := h.Quantile(0.5); got < 0.4 || got > 0.6 {
		t.Errorf("p50 = %v, want ~0.5", got)
	}
	if got := h.Quantile(1); got != 1 {
		t.Errorf("p100 = %v, want 1 (first bucket upper bound)", got)
	}
	// Push everything past the last bound: the overflow bucket has no upper
	// bound, so the estimator reports the largest finite one.
	h2 := r.Histogram("lat2", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %v, want 2", got)
	}
	// Clamping.
	if got := h2.Quantile(-3); got != h2.Quantile(0) {
		t.Errorf("q<0 not clamped: %v", got)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
}

func TestSnapshotQuantileMatchesHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LatencyBuckets())
	for k := 1; k <= 1000; k++ {
		h.Observe(float64(k) * 1e-4) // 0.1ms .. 100ms
	}
	snap := r.Snapshot().Histograms["lat"]
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if hq, sq := h.Quantile(q), snap.Quantile(q); hq != sq {
			t.Errorf("q=%v: histogram %v != snapshot %v", q, hq, sq)
		}
	}
	// And the wire form round-trips: marshal the snapshot, decode it, and
	// the quantiles still agree (the /debug/metrics client path).
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if hq, bq := h.Quantile(0.9), back.Histograms["lat"].Quantile(0.9); hq != bq {
		t.Errorf("decoded p90 = %v, want %v", bq, hq)
	}
}

func TestLatencyBucketsAscending(t *testing.T) {
	b := LatencyBuckets()
	if len(b) < 40 {
		t.Fatalf("LatencyBuckets too coarse: %d buckets", len(b))
	}
	for k := 1; k < len(b); k++ {
		if b[k] <= b[k-1] {
			t.Fatalf("bucket %d (%v) not above bucket %d (%v)", k, b[k], k-1, b[k-1])
		}
	}
}
