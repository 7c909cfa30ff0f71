// Command specmon is the fleet monitor: point it at one or more node URLs
// and it discovers the rest of the cluster via /v1/status, polls every
// node's /debug/metrics/series delta windows, and stitches a cluster-wide
// view — aggregate request rate, error rate, merged per-interval latency
// quantiles, shard queue depths, WAL fsync latency, and per-follower
// replication lag — as a live ASCII dashboard, a newline-delimited JSON
// timeline (-json) for offline analysis, or an SLO gate (-check) that exits
// nonzero on breach so soaks and CI can fail on regressions, not vibes.
//
//	specmon http://127.0.0.1:7937
//	specmon -json -duration 30s http://127.0.0.1:7937 > timeline.ndjson
//	specmon -check -duration 30s -slo-p99 50ms -slo-lag-lsn 1000 \
//	    -slo-error-rate 0.01 http://127.0.0.1:7937 http://127.0.0.1:7938
//
// Endpoints polled per node: GET /v1/status (role/leader discovery), GET
// /debug/metrics/series (delta windows; quantiles come from merged interval
// histogram buckets, so they are true per-interval percentiles), GET
// /v1/replica/status (follower lag), and GET /debug/evidence (anomaly
// captures, listed so the operator lands on the evidence, not the alert).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/replica"
	"specmatch/internal/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specmon:", err)
		if errors.Is(err, errSLOBreach) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

// errSLOBreach marks a -check failure; main maps it to a distinct exit
// code so scripts can tell "cluster broke its SLOs" from "specmon broke".
var errSLOBreach = errors.New("SLO breach")

// slos are the declared service-level objectives -check evaluates over the
// whole run. Negative/zero values disable the corresponding check.
type slos struct {
	p99       time.Duration
	lagLSN    int64
	lagMS     int64
	errorRate float64
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specmon", flag.ContinueOnError)
	var (
		interval = fs.Duration("interval", time.Second, "poll interval")
		duration = fs.Duration("duration", 0, "total run time (0 = until interrupted; -check requires > 0)")
		jsonOut  = fs.Bool("json", false, "emit one JSON object per poll (newline-delimited) instead of the dashboard")
		check    = fs.Bool("check", false, "evaluate SLOs over the run and exit nonzero on breach")
		sloP99   = fs.Duration("slo-p99", 0, "SLO: cluster-wide request p99 over the run (0 = off)")
		sloLag   = fs.Int64("slo-lag-lsn", -1, "SLO: max follower lag in LSNs observed at any poll (-1 = off)")
		sloLagMS = fs.Int64("slo-lag-ms", -1, "SLO: max follower lag in milliseconds observed at any poll (-1 = off)")
		sloErr   = fs.Float64("slo-error-rate", -1, "SLO: 5xx fraction of requests over the run, 503 backpressure excluded (-1 = off)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: specmon [flags] node-url [node-url...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("at least one seed node URL is required")
	}
	if *check && *duration <= 0 {
		return fmt.Errorf("-check needs -duration > 0 to bound the run")
	}

	mon := newMonitor(fs.Args())
	// Signals cancel in-flight polls; -duration only ends the loop. A poll
	// still running when the run's time is up completes (each request is
	// bounded by the client timeout), so a healthy node is never reported
	// unreachable just because the deadline fell mid-poll.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var deadline <-chan time.Time
	if *duration > 0 {
		timer := time.NewTimer(*duration)
		defer timer.Stop()
		deadline = timer.C
	}

	enc := json.NewEncoder(out)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for running := true; running; {
		tick := mon.poll(ctx)
		switch {
		case *jsonOut:
			if err := enc.Encode(tick); err != nil {
				return err
			}
		case *check:
			fmt.Fprintln(out, tick.line())
		default:
			renderDashboard(out, tick)
		}
		select {
		case <-ctx.Done():
			running = false
		case <-deadline:
			running = false
		case <-ticker.C:
			// After a slow poll the tick and the deadline can both be ready,
			// and select picks at random: the deadline must still win.
			select {
			case <-deadline:
				running = false
			default:
			}
		}
	}

	if !*check {
		return nil
	}
	return mon.evaluate(out, slos{p99: *sloP99, lagLSN: *sloLag, lagMS: *sloLagMS, errorRate: *sloErr})
}

// NodeTick is one node's contribution to a poll: the deltas from its
// series windows not yet consumed, plus role, lag, and evidence state.
type NodeTick struct {
	URL      string   `json:"url"`
	Role     string   `json:"role,omitempty"`
	Leader   string   `json:"leader,omitempty"`
	Err      string   `json:"err,omitempty"`
	Sessions int      `json:"sessions"`
	Seconds  float64  `json:"seconds"` // wall time the consumed windows span
	Requests int64    `json:"requests"`
	Errors   int64    `json:"errors"` // 5xx excluding 503 backpressure
	P99      float64  `json:"p99_seconds"`
	QueueMax int64    `json:"queue_depth_max"`
	FsyncP99 float64  `json:"wal_fsync_p99_seconds,omitempty"`
	LagLSN   int64    `json:"lag_lsn,omitempty"`
	LagMS    int64    `json:"lag_ms,omitempty"`
	Evidence []string `json:"evidence,omitempty"`

	lat   obs.HistogramSnapshot
	fsync obs.HistogramSnapshot
}

// Tick is the cluster-wide poll document -json emits.
type Tick struct {
	Seq       int        `json:"seq"`
	UnixMS    int64      `json:"unix_ms"`
	Nodes     []NodeTick `json:"nodes"`
	ReqPerSec float64    `json:"req_per_sec"`
	ErrorRate float64    `json:"error_rate"`
	P50       float64    `json:"p50_seconds"`
	P99       float64    `json:"p99_seconds"`
	P999      float64    `json:"p999_seconds"`
	QueueMax  int64      `json:"queue_depth_max"`
	FsyncP99  float64    `json:"wal_fsync_p99_seconds"`
	LagLSN    int64      `json:"lag_lsn_max"`
	LagMS     int64      `json:"lag_ms_max"`
	Evidence  int        `json:"evidence"`
}

// line renders the one-line -check form of a tick.
func (t Tick) line() string {
	return fmt.Sprintf("tick %d: nodes=%d req/s=%.1f err=%.4f p99=%s queue=%d lag=%d/%dms evidence=%d",
		t.Seq, len(t.Nodes), t.ReqPerSec, t.ErrorRate, fmtSeconds(t.P99), t.QueueMax, t.LagLSN, t.LagMS, t.Evidence)
}

// monitor holds cross-poll state: the discovered node set, each node's
// series high-water mark, and the run-wide SLO accumulators.
type monitor struct {
	client *http.Client
	nodes  []string
	seen   map[string]bool
	// lastSeq is the highest window Seq consumed per node; -1 means
	// consume from the beginning (first contact, or node restart).
	lastSeq map[string]int64
	ticks   int

	// Run-wide accumulators for -check.
	totalReqs  int64
	totalErrs  int64
	cumLat     obs.HistogramSnapshot
	maxLagLSN  int64
	maxLagMS   int64
	pollErrors int
}

func newMonitor(seeds []string) *monitor {
	m := &monitor{
		client:  &http.Client{Timeout: 5 * time.Second},
		seen:    make(map[string]bool),
		lastSeq: make(map[string]int64),
	}
	for _, s := range seeds {
		m.add(s)
	}
	return m
}

func (m *monitor) add(url string) {
	url = strings.TrimRight(url, "/")
	if url == "" || m.seen[url] {
		return
	}
	m.seen[url] = true
	m.nodes = append(m.nodes, url)
	m.lastSeq[url] = -1
}

func (m *monitor) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// poll takes one cluster sample: refresh discovery, consume each node's
// new series windows, and aggregate.
func (m *monitor) poll(ctx context.Context) Tick {
	tick := Tick{Seq: m.ticks, UnixMS: time.Now().UnixMilli()}
	m.ticks++

	// Discovery: every follower names its leader; any URL we learn joins
	// the fleet. (Leaders do not know follower URLs — followers dial in —
	// so list every follower you care about as a seed.)
	for _, url := range append([]string(nil), m.nodes...) {
		var st replica.NodeStatus
		if err := m.getJSON(ctx, url+"/v1/status", &st); err != nil {
			continue
		}
		m.add(st.Leader)
	}

	var clusterLat, clusterFsync obs.HistogramSnapshot
	var reqs, errs int64
	var seconds float64
	for _, url := range m.nodes {
		nt := m.pollNode(ctx, url)
		tick.Nodes = append(tick.Nodes, nt)
		if nt.Err != "" {
			m.pollErrors++
			continue
		}
		reqs += nt.Requests
		errs += nt.Errors
		if nt.Seconds > seconds {
			seconds = nt.Seconds // nodes sample in parallel: span, not sum
		}
		if merged, ok := obs.MergeHistogram(clusterLat, nt.lat); ok {
			clusterLat = merged
		}
		if merged, ok := obs.MergeHistogram(clusterFsync, nt.fsync); ok {
			clusterFsync = merged
		}
		if nt.QueueMax > tick.QueueMax {
			tick.QueueMax = nt.QueueMax
		}
		if nt.LagLSN > tick.LagLSN {
			tick.LagLSN = nt.LagLSN
		}
		if nt.LagMS > tick.LagMS {
			tick.LagMS = nt.LagMS
		}
		tick.Evidence += len(nt.Evidence)
	}
	if seconds > 0 {
		tick.ReqPerSec = float64(reqs) / seconds
	}
	if reqs > 0 {
		tick.ErrorRate = float64(errs) / float64(reqs)
	}
	tick.P50 = clusterLat.Quantile(0.50)
	tick.P99 = clusterLat.Quantile(0.99)
	tick.P999 = clusterLat.Quantile(0.999)
	tick.FsyncP99 = clusterFsync.Quantile(0.99)

	// Run-wide SLO accumulators.
	m.totalReqs += reqs
	m.totalErrs += errs
	if merged, ok := obs.MergeHistogram(m.cumLat, clusterLat); ok {
		m.cumLat = merged
	}
	if tick.LagLSN > m.maxLagLSN {
		m.maxLagLSN = tick.LagLSN
	}
	if tick.LagMS > m.maxLagMS {
		m.maxLagMS = tick.LagMS
	}
	return tick
}

// pollNode consumes one node's new windows and reduces them to a NodeTick.
func (m *monitor) pollNode(ctx context.Context, url string) NodeTick {
	nt := NodeTick{URL: url}

	var st replica.NodeStatus
	if err := m.getJSON(ctx, url+"/v1/status", &st); err != nil {
		nt.Err = err.Error()
		return nt
	}
	nt.Role, nt.Leader, nt.Sessions = st.Role, st.Leader, st.Sessions

	var series obs.Series
	if err := m.getJSON(ctx, url+"/debug/metrics/series", &series); err != nil {
		nt.Err = err.Error()
		return nt
	}
	last := m.lastSeq[url]
	if n := len(series.Windows); n > 0 && int64(series.Windows[n-1].Seq) < last {
		last = -1 // node restarted: its seq space began again
	}
	for _, w := range series.Windows {
		if int64(w.Seq) <= last {
			continue
		}
		m.lastSeq[url] = int64(w.Seq)
		nt.Seconds += w.Seconds()
		for name, v := range w.Counters {
			switch {
			case strings.HasPrefix(name, "server.requests."):
				if monRoute(strings.TrimPrefix(name, "server.requests.")) {
					continue // don't count the monitor watching itself
				}
				nt.Requests += v
			case strings.HasPrefix(name, "server.status."):
				if code, err := strconv.Atoi(name[len("server.status."):]); err == nil &&
					code >= 500 && code != http.StatusServiceUnavailable {
					nt.Errors += v
				}
			}
		}
		for name, hs := range w.Histograms {
			switch {
			case strings.HasPrefix(name, "server.request_seconds."):
				if monRoute(strings.TrimPrefix(name, "server.request_seconds.")) {
					continue
				}
				if merged, ok := obs.MergeHistogram(nt.lat, hs); ok {
					nt.lat = merged
				}
			case name == "server.wal.fsync_seconds":
				if merged, ok := obs.MergeHistogram(nt.fsync, hs); ok {
					nt.fsync = merged
				}
			}
		}
	}
	if n := len(series.Windows); n > 0 {
		// Gauges are last-value: only the newest window's reading matters.
		for name, v := range series.Windows[n-1].Gauges {
			if strings.HasPrefix(name, "server.shard.") && strings.HasSuffix(name, ".queue_depth") && v > nt.QueueMax {
				nt.QueueMax = v
			}
		}
	}
	nt.P99 = nt.lat.Quantile(0.99)
	nt.FsyncP99 = nt.fsync.Quantile(0.99)

	if st.Role == "follower" {
		var rs replica.ReplicaStatus
		if err := m.getJSON(ctx, url+"/v1/replica/status", &rs); err == nil && rs.Follow != nil {
			for _, sh := range rs.Follow.Shards {
				if int64(sh.LagLSN) > nt.LagLSN {
					nt.LagLSN = int64(sh.LagLSN)
				}
				if sh.LagMS > nt.LagMS {
					nt.LagMS = sh.LagMS
				}
			}
		}
	}

	var ev server.EvidenceListing
	if err := m.getJSON(ctx, url+"/debug/evidence", &ev); err == nil {
		for _, f := range ev.Files {
			nt.Evidence = append(nt.Evidence, f.Name)
		}
		sort.Strings(nt.Evidence)
	}
	return nt
}

// evaluate prints the SLO verdicts and returns errSLOBreach if any failed.
func (m *monitor) evaluate(out io.Writer, s slos) error {
	type verdict struct {
		name string
		on   bool
		ok   bool
		got  string
		want string
	}
	errRate := 0.0
	if m.totalReqs > 0 {
		errRate = float64(m.totalErrs) / float64(m.totalReqs)
	}
	p99 := m.cumLat.Quantile(0.99)
	verdicts := []verdict{
		{"p99-latency", s.p99 > 0, p99 <= s.p99.Seconds(), fmtSeconds(p99), "<= " + s.p99.String()},
		{"replica-lag-lsn", s.lagLSN >= 0, m.maxLagLSN <= s.lagLSN, strconv.FormatInt(m.maxLagLSN, 10), "<= " + strconv.FormatInt(s.lagLSN, 10)},
		{"replica-lag-ms", s.lagMS >= 0, m.maxLagMS <= s.lagMS, strconv.FormatInt(m.maxLagMS, 10), "<= " + strconv.FormatInt(s.lagMS, 10)},
		{"error-rate", s.errorRate >= 0, errRate <= s.errorRate, fmt.Sprintf("%.5f", errRate), fmt.Sprintf("<= %.5f", s.errorRate)},
	}
	breached := false
	for _, v := range verdicts {
		if !v.on {
			continue
		}
		state := "PASS"
		if !v.ok {
			state, breached = "FAIL", true
		}
		fmt.Fprintf(out, "SLO %-16s %s  (got %s, want %s)\n", v.name, state, v.got, v.want)
	}
	fmt.Fprintf(out, "checked %d ticks over %d requests (%d poll errors)\n", m.ticks, m.totalReqs, m.pollErrors)
	if m.totalReqs == 0 && (s.p99 > 0 || s.errorRate >= 0) {
		fmt.Fprintln(out, "SLO no-traffic       FAIL  (0 requests observed: nothing to certify)")
		breached = true
	}
	if breached {
		return errSLOBreach
	}
	return nil
}

// renderDashboard paints the live view: clear-screen ANSI plus one line per
// node under a cluster header.
func renderDashboard(out io.Writer, t Tick) {
	fmt.Fprint(out, "\033[H\033[2J")
	fmt.Fprintf(out, "specmon · %d nodes · tick %d · %s\n", len(t.Nodes), t.Seq, time.UnixMilli(t.UnixMS).Format(time.TimeOnly))
	fmt.Fprintf(out, "cluster  %8.1f req/s  err %6.3f%%  p50 %-9s p99 %-9s p999 %-9s\n",
		t.ReqPerSec, t.ErrorRate*100, fmtSeconds(t.P50), fmtSeconds(t.P99), fmtSeconds(t.P999))
	fmt.Fprintf(out, "         queue max %-5d wal fsync p99 %-9s lag %d lsn / %d ms  evidence %d\n\n",
		t.QueueMax, fmtSeconds(t.FsyncP99), t.LagLSN, t.LagMS, t.Evidence)
	for _, n := range t.Nodes {
		if n.Err != "" {
			fmt.Fprintf(out, "  %-28s UNREACHABLE %s\n", n.URL, n.Err)
			continue
		}
		rate := 0.0
		if n.Seconds > 0 {
			rate = float64(n.Requests) / n.Seconds
		}
		line := fmt.Sprintf("  %-28s %-8s sess %-5d %8.1f req/s  p99 %-9s queue %-4d", n.URL, n.Role, n.Sessions, rate, fmtSeconds(n.P99), n.QueueMax)
		if n.Role == "follower" {
			line += fmt.Sprintf("  lag %d lsn / %d ms", n.LagLSN, n.LagMS)
		}
		if len(n.Evidence) > 0 {
			line += fmt.Sprintf("  evidence %d (%s)", len(n.Evidence), n.Evidence[len(n.Evidence)-1])
		}
		fmt.Fprintln(out, line)
	}
}

// monRoute reports routes that are monitoring traffic, not served load:
// counting specmon's own status polls would let the monitor inflate (and
// with enough pollers, dominate) the SLOs it certifies.
func monRoute(route string) bool {
	return route == "status" || route == "replica_status"
}

// fmtSeconds renders a latency in engineer-friendly units.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
