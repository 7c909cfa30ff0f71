package server

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

func TestRateGatePerKey(t *testing.T) {
	g := NewRateGate(time.Hour)
	if !g.Allow("5xx") {
		t.Fatal("first 5xx must pass")
	}
	if g.Allow("5xx") {
		t.Fatal("second 5xx within the interval must be limited")
	}
	// The point of per-trigger budgets: a 5xx burst cannot starve anomaly
	// captures.
	if !g.Allow("anomaly-p99") {
		t.Fatal("a different trigger type has its own budget")
	}
	if !NewRateGate(0).Allow("x") || !NewRateGate(-1).Allow("x") {
		t.Fatal("non-positive interval disables limiting")
	}
	var nilGate *RateGate
	if !nilGate.Allow("x") {
		t.Fatal("nil gate allows everything")
	}
}

// reqWindow builds a delta window whose request histogram saw n
// observations of val seconds.
func reqWindow(val float64, n int) obs.Window {
	reg := obs.NewRegistry()
	h := reg.Histogram("server.request_seconds.events", obs.TimeBuckets())
	for i := 0; i < n; i++ {
		h.Observe(val)
	}
	return obs.Window{Histograms: reg.Snapshot().Histograms}
}

func testWatchdog(t *testing.T, dir string, cfg AnomalyConfig) (*Watchdog, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	fl := trace.NewFlight(1024)
	wd := newWatchdog(reg, fl, dir, 16, cfg)
	t.Cleanup(wd.Close)
	return wd, reg
}

func TestWatchdogP99Trigger(t *testing.T) {
	dir := t.TempDir()
	wd, reg := testWatchdog(t, dir, AnomalyConfig{
		Sustain: 2, RateLimit: -1, ProfileDuration: 20 * time.Millisecond,
	})

	// Calm traffic builds the baseline; nothing may fire.
	for i := 0; i < 10; i++ {
		wd.Observe(reqWindow(0.001, 100))
	}
	if got := reg.Counter("server.anomaly.p99").Value(); got != 0 {
		t.Fatalf("calm windows fired %d times", got)
	}
	// One bad window is noise...
	wd.Observe(reqWindow(0.5, 100))
	if got := reg.Counter("server.anomaly.p99").Value(); got != 0 {
		t.Fatalf("single anomalous window fired (sustain=2)")
	}
	// ...a sustained run is a capture.
	wd.Observe(reqWindow(0.5, 100))
	if got := reg.Counter("server.anomaly.p99").Value(); got != 1 {
		t.Fatalf("sustained blowup fired %d times, want 1", got)
	}
	if got := reg.Counter("server.anomaly.captures").Value(); got != 1 {
		t.Fatalf("captures = %d, want 1", got)
	}
	wd.Close() // join the async CPU profile

	// The evidence pair is on disk.
	var gotTrace, gotProf bool
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "anomaly-p99-") && strings.HasSuffix(e.Name(), ".trace.json") {
			gotTrace = true
		}
		if strings.HasPrefix(e.Name(), "anomaly-p99-") && strings.HasSuffix(e.Name(), ".pprof") {
			gotProf = true
		}
	}
	if !gotTrace || !gotProf {
		t.Fatalf("evidence pair missing: trace=%v pprof=%v (dir: %v)", gotTrace, gotProf, entries)
	}

	// And /debug/evidence lists it.
	rec := httptest.NewRecorder()
	evidenceHandler(dir).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/evidence", nil))
	var doc EvidenceListing
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Files) < 2 || doc.Dir != dir {
		t.Fatalf("evidence listing = %+v, want both files under %s", doc, dir)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("evidence Content-Type = %q", ct)
	}
}

func TestWatchdogQueueTrigger(t *testing.T) {
	wd, reg := testWatchdog(t, t.TempDir(), AnomalyConfig{Sustain: 2, RateLimit: -1, ProfileDuration: time.Millisecond})
	full := obs.Window{Gauges: map[string]int64{"server.shard.0.queue_depth": 15}} // 15/16 > 0.9
	calm := obs.Window{Gauges: map[string]int64{"server.shard.0.queue_depth": 2}}
	wd.Observe(full)
	wd.Observe(calm) // streak must reset
	wd.Observe(full)
	if got := reg.Counter("server.anomaly.queue").Value(); got != 0 {
		t.Fatalf("non-consecutive saturation fired %d times", got)
	}
	wd.Observe(full)
	wd.Observe(full)
	if got := reg.Counter("server.anomaly.queue").Value(); got != 1 {
		t.Fatalf("sustained saturation fired %d times, want 1", got)
	}
}

func TestWatchdogLagTrigger(t *testing.T) {
	wd, reg := testWatchdog(t, t.TempDir(), AnomalyConfig{Sustain: 2, LagLSN: 100, RateLimit: -1, ProfileDuration: time.Millisecond})
	lagging := obs.Window{Gauges: map[string]int64{"replica.lag_lsn": 5000}}
	wd.Observe(lagging)
	wd.Observe(lagging)
	if got := reg.Counter("server.anomaly.lag").Value(); got != 1 {
		t.Fatalf("sustained lag fired %d times, want 1", got)
	}
}

func TestWatchdogRateLimit(t *testing.T) {
	wd, reg := testWatchdog(t, t.TempDir(), AnomalyConfig{Sustain: 1, LagLSN: 100, RateLimit: time.Hour, ProfileDuration: time.Millisecond})
	lagging := obs.Window{Gauges: map[string]int64{"replica.lag_lsn": 5000}}
	wd.Observe(lagging)
	wd.Observe(lagging)
	if got := reg.Counter("server.anomaly.lag").Value(); got != 2 {
		t.Fatalf("trigger counter = %d, want 2 (counting is not rate-limited)", got)
	}
	if got := reg.Counter("server.anomaly.captures").Value(); got != 1 {
		t.Fatalf("captures = %d, want 1 (second capture limited)", got)
	}
	if got := reg.Counter("server.anomaly.suppressed").Value(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
}

// TestServerSeriesEndpoints drives the new debug surface end to end on a
// live server: the sampler populates /debug/metrics/series, the prom and
// evidence endpoints answer with the right Content-Types, and Drain stops
// the sampler with a final flush.
func TestServerSeriesEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := New(Config{
		Metrics:        reg,
		SampleInterval: 10 * time.Millisecond,
		DataDir:        filepath.Join(dir, "data"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Generate a little traffic, then wait for at least one sample tick.
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions", nil))
		if rec.Code != 200 {
			t.Fatalf("list: HTTP %d", rec.Code)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ws := s.Rollup().Windows(0); len(ws) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no windows")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics/series?window=1m", nil))
	var series obs.Series
	if err := json.Unmarshal(rec.Body.Bytes(), &series); err != nil {
		t.Fatalf("series decode: %v", err)
	}
	if len(series.Windows) == 0 || series.IntervalSeconds != 0.01 {
		t.Fatalf("series = %d windows interval %v", len(series.Windows), series.IntervalSeconds)
	}
	var listed int64
	for _, w := range series.Windows {
		listed += w.Counters["server.requests.list"]
	}
	if listed != 3 {
		t.Fatalf("series accounts for %d list requests, want 3", listed)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics/prom", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("prom Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "server_requests_list 3") {
		t.Errorf("prom exposition missing server_requests_list:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/evidence", nil))
	var ev EvidenceListing
	if err := json.Unmarshal(rec.Body.Bytes(), &ev); err != nil {
		t.Fatalf("evidence decode: %v", err)
	}
	if ev.Dir != filepath.Join(dir, "data", "evidence") {
		t.Errorf("evidence dir = %q, want under the data dir", ev.Dir)
	}

	// Drain flushes a final window and is safe to call with the sampler
	// running.
	s.Drain()
}
