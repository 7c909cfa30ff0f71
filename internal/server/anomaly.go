package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// This file closes the telemetry loop: the same delta windows that feed
// /debug/metrics/series drive a watchdog that, on a sustained anomaly,
// captures evidence (a flight-recorder dump plus a pprof CPU profile) into
// the node's evidence directory — so by the time an operator sees the
// alert, the data needed to explain it is already on disk. Triggers are
// rate-limited per type through a RateGate, counted under server.anomaly.*,
// and each firing records an `anomaly` span so the dump explains itself.

// RateGate rate-limits events per key: Allow("5xx") and Allow("anomaly-p99")
// budget independently, so a 5xx burst can never starve an anomaly capture
// (the failure mode of the old single global limiter). Safe for concurrent
// use; the zero interval allows everything.
type RateGate struct {
	interval time.Duration
	mu       sync.Mutex
	last     map[string]time.Time
}

// NewRateGate builds a gate allowing one event per key per interval.
func NewRateGate(interval time.Duration) *RateGate {
	return &RateGate{interval: interval, last: make(map[string]time.Time)}
}

// Allow reports whether an event for key fits the budget, consuming the
// slot when it does.
func (g *RateGate) Allow(key string) bool {
	if g == nil || g.interval <= 0 {
		return true
	}
	now := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.last[key]; ok && now.Sub(t) < g.interval {
		return false
	}
	g.last[key] = now
	return true
}

// AnomalyConfig tunes the watchdog. Zero values take the documented
// defaults; Disabled turns the watchdog off entirely.
type AnomalyConfig struct {
	// Disabled turns anomaly detection off even when an evidence dir is
	// available.
	Disabled bool
	// P99Factor is the sustained-latency trigger: a window whose request
	// p99 exceeds P99Factor × the trailing baseline is anomalous. Zero
	// means 4.
	P99Factor float64
	// QueueFrac is the saturation trigger: any shard whose queue_depth
	// gauge reaches QueueFrac × QueueDepth is anomalous. Zero means 0.9.
	QueueFrac float64
	// LagLSN is the follower trigger: a replica.lag_lsn gauge above it is
	// anomalous. Zero means 65536; negative disables the lag trigger.
	LagLSN int64
	// Sustain is how many consecutive anomalous windows arm a trigger —
	// one bad interval is noise, Sustain of them is a capture. Zero
	// means 3.
	Sustain int
	// RateLimit is the per-trigger-type capture budget. Zero means 60s;
	// negative disables rate limiting.
	RateLimit time.Duration
	// ProfileDuration is how long the evidence CPU profile runs. Zero
	// means 2s.
	ProfileDuration time.Duration
}

const (
	// minP99Count is the fewest requests a window needs before its p99 is
	// judged (tiny windows have meaningless quantiles).
	minP99Count = 50
	// baselineWindows bounds the trailing calm-window p99s the latency
	// baseline averages over.
	baselineWindows = 30
)

func (c AnomalyConfig) withDefaults() AnomalyConfig {
	if c.P99Factor <= 0 {
		c.P99Factor = 4
	}
	if c.QueueFrac <= 0 {
		c.QueueFrac = 0.9
	}
	if c.LagLSN == 0 {
		c.LagLSN = 65536
	}
	if c.Sustain <= 0 {
		c.Sustain = 3
	}
	if c.RateLimit == 0 {
		c.RateLimit = time.Minute
	}
	if c.ProfileDuration <= 0 {
		c.ProfileDuration = 2 * time.Second
	}
	return c
}

// Watchdog inspects each delta window as the rollup produces it and
// captures evidence on sustained anomalies. It runs on the sampler
// goroutine (hung off Rollup.SetOnSample), so a capture never blocks a
// request; the CPU profile runs on its own goroutine because it takes
// ProfileDuration to finish.
type Watchdog struct {
	reg        *obs.Registry
	fl         *trace.Flight
	dir        string
	cfg        AnomalyConfig
	queueDepth int
	gate       *RateGate

	// Sampler-goroutine state: trailing p99 baseline and per-trigger
	// consecutive-anomaly streaks. Guarded by mu only because tests drive
	// Observe directly while readers poll counters.
	mu      sync.Mutex
	p99s    []float64
	streaks map[string]int

	profiling atomic.Bool
	wg        sync.WaitGroup
}

// newWatchdog wires a watchdog over reg writing evidence into dir.
// queueDepth is the shard queue capacity the saturation fraction is
// relative to.
func newWatchdog(reg *obs.Registry, fl *trace.Flight, dir string, queueDepth int, cfg AnomalyConfig) *Watchdog {
	return &Watchdog{
		reg:        reg,
		fl:         fl,
		dir:        dir,
		cfg:        cfg.withDefaults(),
		queueDepth: queueDepth,
		gate:       NewRateGate(cfg.withDefaults().RateLimit),
		streaks:    make(map[string]int),
	}
}

// Close waits for any in-flight evidence capture (the async CPU profile)
// to finish. Call during drain, before the process exits.
func (w *Watchdog) Close() {
	if w == nil {
		return
	}
	w.wg.Wait()
}

// Observe judges one delta window. It is the Rollup OnSample hook.
func (w *Watchdog) Observe(win obs.Window) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()

	// Latency: merge every per-route request histogram so the judgment
	// covers the node's whole request mix, then compare the interval p99
	// against the trailing baseline of calm windows.
	var merged obs.HistogramSnapshot
	for name, hs := range win.Histograms {
		if strings.HasPrefix(name, "server.request_seconds.") {
			if m, ok := obs.MergeHistogram(merged, hs); ok {
				merged = m
			}
		}
	}
	if merged.Count >= minP99Count {
		p99 := merged.Quantile(0.99)
		base := w.baseline()
		if base > 0 && p99 > w.cfg.P99Factor*base {
			w.bump("p99", fmt.Sprintf("p99=%.6fs baseline=%.6fs factor=%.1f", p99, base, w.cfg.P99Factor))
		} else {
			w.streaks["p99"] = 0
			w.p99s = append(w.p99s, p99)
			if len(w.p99s) > baselineWindows {
				w.p99s = w.p99s[len(w.p99s)-baselineWindows:]
			}
		}
	}

	// Queue saturation: any shard riding near its queue capacity.
	var worst int64
	for name, v := range win.Gauges {
		if strings.HasPrefix(name, "server.shard.") && strings.HasSuffix(name, ".queue_depth") && v > worst {
			worst = v
		}
	}
	if w.queueDepth > 0 && float64(worst) >= w.cfg.QueueFrac*float64(w.queueDepth) {
		w.bump("queue", fmt.Sprintf("queue_depth=%d capacity=%d", worst, w.queueDepth))
	} else {
		w.streaks["queue"] = 0
	}

	// Follower lag: the replication gauges live in the same registry on a
	// follower node.
	if lag := win.Gauges["replica.lag_lsn"]; w.cfg.LagLSN >= 0 && lag > w.cfg.LagLSN {
		w.bump("lag", fmt.Sprintf("lag_lsn=%d limit=%d", lag, w.cfg.LagLSN))
	} else {
		w.streaks["lag"] = 0
	}
}

// baseline is the mean of the retained calm-window p99s.
func (w *Watchdog) baseline() float64 {
	if len(w.p99s) < 3 { // too little history to call anything anomalous
		return 0
	}
	var sum float64
	for _, v := range w.p99s {
		sum += v
	}
	return sum / float64(len(w.p99s))
}

// bump advances a trigger's streak and fires it once the anomaly has been
// sustained. The streak resets on firing, so re-arming takes another full
// run of anomalous windows.
func (w *Watchdog) bump(trigger, detail string) {
	w.streaks[trigger]++
	if w.streaks[trigger] < w.cfg.Sustain {
		return
	}
	w.streaks[trigger] = 0
	w.fire(trigger, detail)
}

// fire counts the trigger and, budget permitting, captures the evidence
// pair: the anomaly span is recorded first so the flight dump written right
// after contains it.
func (w *Watchdog) fire(trigger, detail string) {
	w.reg.Counter("server.anomaly." + trigger).Inc()
	if !w.gate.Allow("anomaly-" + trigger) {
		w.reg.Counter("server.anomaly.suppressed").Inc()
		return
	}
	span := w.fl.Start(trace.SpanContext{}, "anomaly")
	if span.Active() {
		span.Annotate("trigger=" + trigger)
		span.Annotate(detail)
	}
	span.End()

	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		w.reg.Counter("server.anomaly.capture_errors").Inc()
		return
	}
	// The flight dump goes next to the profile; without a flight recorder
	// there is only the profile.
	stem := filepath.Join(w.dir, fmt.Sprintf("anomaly-%s-%d", trigger, time.Now().UnixMilli()))
	if w.fl.Enabled() {
		if err := trace.WriteChromeFlightFile(stem+".trace.json", w.fl); err != nil {
			w.reg.Counter("server.anomaly.capture_errors").Inc()
		} else {
			w.reg.Counter("server.anomaly.captures").Inc()
		}
	}
	w.profile(stem + ".pprof")
}

// profile captures a CPU profile asynchronously. The runtime allows one
// CPU profile process-wide, so a capture that loses the race (another
// trigger's profile, or an operator's /debug/pprof/profile) is skipped and
// counted rather than retried.
func (w *Watchdog) profile(path string) {
	if !w.profiling.CompareAndSwap(false, true) {
		w.reg.Counter("server.anomaly.profile_skipped").Inc()
		return
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer w.profiling.Store(false)
		f, err := os.Create(path)
		if err != nil {
			w.reg.Counter("server.anomaly.capture_errors").Inc()
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			w.reg.Counter("server.anomaly.profile_skipped").Inc()
			return
		}
		time.Sleep(w.cfg.ProfileDuration)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			w.reg.Counter("server.anomaly.capture_errors").Inc()
			return
		}
		w.reg.Counter("server.anomaly.profiles").Inc()
	}()
}

// EvidenceFile is one entry in the /debug/evidence listing.
type EvidenceFile struct {
	Name    string `json:"name"`
	Bytes   int64  `json:"bytes"`
	ModTime string `json:"mod_time"`
}

// EvidenceListing is the /debug/evidence document: whatever anomaly
// captures (and operator-initiated dumps) live in the node's evidence
// directory, newest last. specmon renders this so an operator lands on the
// evidence, not just the alert.
type EvidenceListing struct {
	Dir   string         `json:"dir"`
	Files []EvidenceFile `json:"files"`
}

// evidenceHandler serves the evidence directory listing. An empty dir (no
// durable evidence home) serves an empty listing; a dir that does not exist
// yet (nothing captured) does too.
func evidenceHandler(dir string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		doc := EvidenceListing{Dir: dir, Files: []EvidenceFile{}}
		if dir != "" {
			if entries, err := os.ReadDir(dir); err == nil {
				for _, e := range entries {
					if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
						continue
					}
					info, err := e.Info()
					if err != nil {
						continue
					}
					doc.Files = append(doc.Files, EvidenceFile{
						Name:    e.Name(),
						Bytes:   info.Size(),
						ModTime: info.ModTime().UTC().Format(time.RFC3339),
					})
				}
			}
		}
		sort.Slice(doc.Files, func(i, j int) bool { return doc.Files[i].Name < doc.Files[j].Name })
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}
