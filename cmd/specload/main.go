// Command specload is a closed-loop load generator for specserved: it
// creates a fleet of market sessions, drives churn events at a target rate
// from concurrent workers, and reports throughput and latency percentiles.
// After the run it reconciles its client-side view against the server's
// /debug/metrics counters — every event request the server acknowledged
// with 200 must appear in server.events.applied, so "zero lost events" is
// checked end to end, not assumed.
//
//	specserved -addr 127.0.0.1:7937 &
//	specload -addr 127.0.0.1:7937 -sessions 8 -concurrency 8 -duration 5s -report -
//
// Exit status is non-zero when events were lost or the measured rate falls
// short of -min-rps, which is what lets the end-to-end harness
// (internal/e2e) assert the serving path instead of eyeballing it. -binary switches the event posts
// to the canonical binary eventlog batch format (the same bytes the server
// logs to its WAL), exercising the unified schema end to end.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/server"
	"specmatch/internal/trace"
	"specmatch/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specload:", err)
		os.Exit(1)
	}
}

// Report is the JSON document -report writes.
type Report struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Sessions        int     `json:"sessions"`
	Concurrency     int     `json:"concurrency"`
	TargetRPS       float64 `json:"target_rps,omitempty"`
	Scenario        string  `json:"scenario,omitempty"`

	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	Rejected    int64   `json:"rejected_429"`
	Errors      int64   `json:"errors"`
	Throughput  float64 `json:"throughput_rps"`
	LatencyMS   Latency `json:"latency_ms"`
	EventsOK    int64   `json:"events_accepted"`
	Applied     int64   `json:"server_events_applied"`
	LostEvents  int64   `json:"lost_events"`
	Reconciled  bool    `json:"reconciled"`
	FinalActive int     `json:"final_active_buyers"`

	// Nodes holds every node's /v1/status document (one entry even without
	// -cluster), so the report records each node's role and durable LSNs.
	Nodes []NodeReport `json:"nodes,omitempty"`

	// Timeline is the per-interval series -timeline records: the same delta
	// machinery as the server's /debug/metrics/series, so a load run's
	// client-side view lines up tick for tick with a specmon timeline.
	Timeline []TimelinePoint `json:"timeline,omitempty"`
}

// TimelinePoint is one -timeline interval: client-side throughput and
// interval latency quantiles computed from histogram bucket deltas.
type TimelinePoint struct {
	StartMS  int64   `json:"start_ms"`
	EndMS    int64   `json:"end_ms"`
	Requests int64   `json:"requests"`
	OK       int64   `json:"ok"`
	Rejected int64   `json:"rejected_429"`
	Errors   int64   `json:"errors"`
	OKPerSec float64 `json:"ok_per_sec"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	// Empty marks a window that saw no requests at all. Scenario valleys
	// (a diurnal trough at low -rps) legitimately produce such windows;
	// they stay in the series as explicit gaps so a plotted timeline shows
	// the trough instead of silently splicing the peaks together.
	Empty bool `json:"empty,omitempty"`
}

// Latency summarizes the merged per-request latency distribution: the
// percentiles are bucket-interpolated estimates from a shared
// obs.Histogram (LatencyBuckets resolution, ~12% error), the max is exact.
type Latency struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// scenario is the -scenario workload shape: a combination of components
// that turn the steady closed-loop load into a time-varying open-loop one.
// Requests form a nonhomogeneous Poisson process — workers draw exponential
// gaps at the peak rate and thin them by the curve's current factor, so
// arrivals and departures are Poisson at every instant and the rate follows
// the curve exactly.
type scenario struct {
	diurnal bool // sinusoidal rate curve, one cycle per period
	flash   bool // flash-crowd burst pinning the rate to peak late in each cycle
	mobile  bool // random-waypoint mobility riding on churn events
	period  time.Duration
	start   time.Time
}

// parseScenario accepts a comma-separated component list: "diurnal",
// "flash", "mobile" in any combination (e.g. "mobile,diurnal,flash").
func parseScenario(spec string, period time.Duration) (*scenario, error) {
	sc := &scenario{period: period}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(tok) {
		case "diurnal":
			sc.diurnal = true
		case "flash":
			sc.flash = true
		case "mobile":
			sc.mobile = true
		case "":
		default:
			return nil, fmt.Errorf("unknown -scenario component %q (want diurnal, flash, mobile)", tok)
		}
	}
	if !sc.diurnal && !sc.flash && !sc.mobile {
		return nil, fmt.Errorf("-scenario %q selects no components", spec)
	}
	if sc.period <= 0 {
		return nil, fmt.Errorf("-scenario-period must be positive")
	}
	return sc, nil
}

// phase maps a wall-clock instant to [0,1) within the current cycle.
func (sc *scenario) phase(now time.Time) float64 {
	ph := math.Mod(now.Sub(sc.start).Seconds()/sc.period.Seconds(), 1)
	if ph < 0 {
		ph += 1
	}
	return ph
}

// inFlash reports whether the instant falls inside the flash-crowd burst —
// the [0.70, 0.80) slice of each cycle.
func (sc *scenario) inFlash(now time.Time) bool {
	ph := sc.phase(now)
	return sc.flash && ph >= 0.70 && ph < 0.80
}

// factor is the rate multiplier in (0, 1]: -rps is the peak aggregate rate
// and the curve only ever thins it. The diurnal curve swings [0.10, 1.00];
// flash without diurnal idles at 0.35; the burst pins to 1.0 either way.
func (sc *scenario) factor(now time.Time) float64 {
	f := 1.0
	if sc.diurnal {
		f = 0.55 + 0.45*math.Sin(2*math.Pi*sc.phase(now))
	} else if sc.flash {
		f = 0.35
	}
	if sc.inFlash(now) {
		f = 1.0
	}
	return f
}

// worker is one closed-loop client: it owns a slice of the session fleet
// and a local belief of each session's active buyers and channel states, so
// it can generate plausible churn without querying the server on the hot
// path. Beliefs may drift when sessions are shared — harmless, since
// duplicate arrivals and departures are idempotent no-ops server-side.
type worker struct {
	r        *rand.Rand
	client   *http.Client
	rt       *router
	sessions []*sessionState
	interval time.Duration

	// lat is shared by every worker (Histogram is atomic); maxSec is this
	// worker's exact maximum, merged at the end — buckets can't recover it.
	lat    *obs.Histogram
	maxSec float64

	// Shared outcome counters feeding the -timeline rollup; nil (no-op)
	// handles when the timeline is off. The per-worker int64 fields below
	// stay authoritative for the whole-run report.
	cReq, cOK, cRej, cErr *obs.Counter

	// Scenario mode (-scenario): the workload shape, the per-worker peak
	// event rate the curve thins, and the probability a churn event also
	// carries random-waypoint moves.
	sc       *scenario
	peakRate float64
	moveProb float64

	// record enables the per-session acked/unacked ledger (-ledger).
	record bool
	// binary posts events as canonical eventlog batches (-binary) instead
	// of JSON; responses come back in the batch shape.
	binary bool

	requests, ok, rejected, errors int64
}

type sessionState struct {
	id       string
	buyers   int
	channels int
	active   []bool
	offline  []bool

	// Ledger recording (-ledger). Only the single owning worker touches
	// these; the -sessions >= -concurrency requirement guarantees exclusive
	// ownership, so the lists are the exact order events hit the server.
	spec      market.Spec
	acked     []AckedEvent
	unacked   []online.Event
	ambiguous int

	// Random-waypoint mobility state (-scenario with the mobile component;
	// exclusive ownership guaranteed the same way as the ledger's): pos
	// mirrors the server-side buyer positions, wp is each buyer's current
	// waypoint. Empty when the market carries no geometry.
	pos []geom.Point
	wp  []geom.Point
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specload", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7937", "specserved address (host:port or URL)")
		clusterList = fs.String("cluster", "", "comma-separated node addresses (leader first); overrides -addr. Requests fail over to the next node on connection refusal or a follower's 503 write gate, so a SIGKILLed leader plus a promoted follower keeps the run going; -verify picks the first reachable non-follower node")
		sessions    = fs.Int("sessions", 8, "market sessions to create")
		sellers     = fs.Int("sellers", 4, "sellers per generated market")
		buyers      = fs.Int("buyers", 24, "buyers per generated market")
		seed        = fs.Int64("seed", 1, "generation and churn seed")
		duration    = fs.Duration("duration", 5*time.Second, "load duration")
		concurrency = fs.Int("concurrency", 8, "concurrent closed-loop workers")
		rps         = fs.Float64("rps", 0, "target aggregate request rate (0 = unthrottled)")
		chanChurn   = fs.Float64("channel-churn", 0.05, "probability an event is a channel up/down instead of buyer churn")
		batch       = fs.Int("batch", 3, "buyers toggled per churn event")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-request client timeout")
		reportPath  = fs.String("report", "", "write the JSON report to this path ('-' = stdout)")
		minRPS      = fs.Float64("min-rps", 0, "fail unless the sustained OK rate reaches this")
		binary      = fs.Bool("binary", false, "post events as canonical binary eventlog batches instead of JSON (exercises the unified wire format end to end)")
		ledgerPath  = fs.String("ledger", "", "record every acknowledged event (with stats) per session to this JSON file; requires -sessions >= -concurrency so each session has one writer; tolerates the server dying mid-run")
		verifyPath  = fs.String("verify", "", "verify a recovered server against this ledger instead of generating load: acked events must be durable and recovered state must equal a replay of the ledger")
		diffPath    = fs.String("diff", "", "with -verify: write a recovered-vs-expected diff artifact here on failure")
		timeline    = fs.Duration("timeline", 0, "record a per-interval throughput/latency series at this sampling interval and embed it in the JSON report (0 = off)")
		scenarioStr = fs.String("scenario", "", "drive a time-varying open-loop workload instead of steady closed-loop churn: comma-separated components from diurnal (sinusoidal rate curve), flash (flash-crowd bursts), mobile (random-waypoint buyer mobility). Requests become a Poisson process whose rate follows the curve; -rps sets the peak and is required; needs -sessions >= -concurrency")
		scenPeriod  = fs.Duration("scenario-period", time.Minute, "diurnal/flash cycle length for -scenario")
		moveProb    = fs.Float64("move-prob", 0.25, "with -scenario mobile: probability a churn event also carries random-waypoint moves")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}
	if *sessions < 1 || *concurrency < 1 {
		return fmt.Errorf("-sessions and -concurrency must be positive")
	}
	if *ledgerPath != "" && *sessions < *concurrency {
		return fmt.Errorf("-ledger needs -sessions >= -concurrency (%d < %d): each session must have exactly one writer for the ledger to be an exact event order", *sessions, *concurrency)
	}
	var sc *scenario
	if *scenarioStr != "" {
		var err error
		if sc, err = parseScenario(*scenarioStr, *scenPeriod); err != nil {
			return err
		}
		if *rps <= 0 {
			return fmt.Errorf("-scenario needs -rps > 0: the curve thins a peak rate, it cannot scale an unthrottled one")
		}
		if *sessions < *concurrency {
			return fmt.Errorf("-scenario needs -sessions >= -concurrency (%d < %d): mobility state must have exactly one writer per session", *sessions, *concurrency)
		}
	}
	nodes := []string{normalizeNode(*addr)}
	if *clusterList != "" {
		var err error
		if nodes, err = parseCluster(*clusterList); err != nil {
			return err
		}
	}
	rt := newRouter(nodes)
	client := &http.Client{Timeout: *timeout}

	if *verifyPath != "" {
		return runVerify(client, pickVerifyNode(client, rt), *verifyPath, *diffPath, out)
	}

	// Create the session fleet.
	states := make([]*sessionState, *sessions)
	for k := range states {
		m, err := market.Generate(market.Config{Sellers: *sellers, Buyers: *buyers, Seed: xrand.Split(*seed, k)})
		if err != nil {
			return err
		}
		body, err := json.Marshal(server.CreateRequest{Spec: m.Spec()})
		if err != nil {
			return err
		}
		resp, err := postCluster(client, rt, "/v1/sessions", "application/json", body)
		if err != nil {
			return fmt.Errorf("creating session %d: %w", k, err)
		}
		var created server.CreateResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("creating session %d: HTTP %d", k, resp.StatusCode)
		}
		if decodeErr != nil {
			return fmt.Errorf("creating session %d: %w", k, decodeErr)
		}
		states[k] = &sessionState{
			id:       created.ID,
			buyers:   created.Buyers,
			channels: created.Channels,
			active:   make([]bool, created.Buyers),
			offline:  make([]bool, created.Channels),
			spec:     m.Spec(),
		}
		if sc != nil && sc.mobile {
			if spec := states[k].spec; len(spec.BuyerPos) == created.Buyers {
				states[k].pos = append([]geom.Point(nil), spec.BuyerPos...)
				states[k].wp = make([]geom.Point, created.Buyers)
				wpr := xrand.New(xrand.Split(*seed, 1000+k))
				for j := range states[k].wp {
					states[k].wp[j] = geom.PaperArea().RandomPoint(wpr)
				}
			}
		}
	}

	// Partition sessions across workers; with fewer sessions than workers
	// they are shared round-robin.
	workers := make([]*worker, *concurrency)
	var interval time.Duration
	if *rps > 0 {
		interval = time.Duration(float64(*concurrency) / *rps * float64(time.Second))
	}
	// One registry holds the client-side instrumentation: the shared latency
	// histogram and, when -timeline is on, the outcome counters the rollup
	// samples into per-interval windows.
	reg := obs.NewRegistry()
	lat := reg.Histogram("specload.request_seconds", obs.LatencyBuckets())
	var rollup *obs.Rollup
	if *timeline > 0 {
		rollup = obs.NewRollup(reg, *timeline, int(*duration / *timeline)+16)
		rollup.Start()
	}
	for w := range workers {
		wk := &worker{
			r:        xrand.NewStream(*seed, w+1),
			client:   client,
			rt:       rt,
			interval: interval,
			lat:      lat,
			sc:       sc,
			peakRate: *rps / float64(*concurrency),
			moveProb: *moveProb,
			record:   *ledgerPath != "",
			binary:   *binary,
		}
		if *timeline > 0 {
			wk.cReq = reg.Counter("specload.requests")
			wk.cOK = reg.Counter("specload.ok")
			wk.cRej = reg.Counter("specload.rejected")
			wk.cErr = reg.Counter("specload.errors")
		}
		for k := w; k < len(states); k += *concurrency {
			wk.sessions = append(wk.sessions, states[k])
		}
		if len(wk.sessions) == 0 {
			wk.sessions = append(wk.sessions, states[w%len(states)])
		}
		workers[w] = wk
	}

	start := time.Now()
	if sc != nil {
		sc.start = start
	}
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.loop(deadline, *chanChurn, *batch)
		}(wk)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rollup.Stop() // final flush catches the tail interval

	rep := Report{
		DurationSeconds: elapsed.Seconds(),
		Sessions:        *sessions,
		Concurrency:     *concurrency,
		TargetRPS:       *rps,
		Scenario:        *scenarioStr,
	}
	maxSec := 0.0
	for _, wk := range workers {
		rep.Requests += wk.requests
		rep.OK += wk.ok
		rep.Rejected += wk.rejected
		rep.Errors += wk.errors
		if wk.maxSec > maxSec {
			maxSec = wk.maxSec
		}
	}
	rep.EventsOK = rep.OK
	rep.Throughput = float64(rep.OK) / elapsed.Seconds()
	if lat.Count() > 0 {
		rep.LatencyMS = Latency{
			P50: lat.Quantile(0.50) * 1e3,
			P90: lat.Quantile(0.90) * 1e3,
			P99: lat.Quantile(0.99) * 1e3,
			Max: maxSec * 1e3,
		}
	}
	rep.Timeline = buildTimeline(rollup)

	// Persist the ledger before talking to the server again: in a crash run
	// the server is already dead and the ledger is the whole point.
	if *ledgerPath != "" {
		led := buildLedger(*seed, states)
		if err := writeLedger(*ledgerPath, led); err != nil {
			return fmt.Errorf("writing ledger: %w", err)
		}
		acked, unacked := 0, 0
		for _, sl := range led.Sessions {
			acked += len(sl.Acked)
			unacked += len(sl.Unacked)
		}
		fmt.Fprintf(out, "ledger: %d sessions, %d acked events, %d unknown-fate tail events -> %s\n",
			len(led.Sessions), acked, unacked, *ledgerPath)
	}

	// Reconcile: every 200 the server sent us must be an applied event.
	// The server can apply slightly more than we count (a request whose
	// response we abandoned at the client timeout), never fewer. With
	// -ledger the server may be gone by now (crash runs kill it mid-load);
	// the ledger verification pass covers what reconciliation would have.
	snap, err := fetchSnapshot(client, rt.base())
	if err != nil {
		if *ledgerPath == "" {
			return fmt.Errorf("metrics reconciliation: %w", err)
		}
		fmt.Fprintf(out, "reconcile skipped (server unreachable: %v); use -verify against the ledger after restart\n", err)
	} else {
		rep.Applied = snap.Counters["server.events.applied"]
		rep.LostEvents = rep.EventsOK - rep.Applied
		if rep.LostEvents < 0 {
			rep.LostEvents = 0
		}
		rep.Reconciled = true
		rep.FinalActive = finalActive(client, rt.base(), states)
	}
	rep.Nodes = fetchNodeStatuses(client, rt)

	if *reportPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *reportPath == "-" {
			_, _ = out.Write(data)
		} else if err := os.WriteFile(*reportPath, data, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "specload: %d requests in %.2fs (%.0f ok/s), ok=%d rejected=%d errors=%d\n",
		rep.Requests, rep.DurationSeconds, rep.Throughput, rep.OK, rep.Rejected, rep.Errors)
	fmt.Fprintf(out, "latency ms: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
		rep.LatencyMS.P50, rep.LatencyMS.P90, rep.LatencyMS.P99, rep.LatencyMS.Max)
	if rep.Reconciled {
		fmt.Fprintf(out, "reconcile: accepted=%d applied=%d lost=%d\n", rep.EventsOK, rep.Applied, rep.LostEvents)
	}
	printNodeStatuses(out, rep.Nodes)

	if rep.LostEvents > 0 {
		return fmt.Errorf("%d events accepted but not applied", rep.LostEvents)
	}
	if *minRPS > 0 && rep.Throughput < *minRPS {
		return fmt.Errorf("throughput %.0f ok/s below -min-rps %.0f", rep.Throughput, *minRPS)
	}
	return nil
}

// loop issues event requests until the deadline. Steady mode paces to the
// worker's share of the target rate; scenario mode draws exponential gaps at
// the peak rate and thins each arrival by the curve's instantaneous factor —
// the textbook construction of a nonhomogeneous Poisson process, so event
// arrivals and departures are Poisson at every point of the curve.
func (wk *worker) loop(deadline time.Time, chanChurn float64, batch int) {
	next := time.Now()
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if wk.sc != nil {
			gap := time.Duration(wk.r.ExpFloat64() / wk.peakRate * float64(time.Second))
			if now.Add(gap).After(deadline) {
				return
			}
			time.Sleep(gap)
			if wk.r.Float64() >= wk.sc.factor(time.Now()) {
				continue // thinned: this candidate arrival is off-curve
			}
		} else if wk.interval > 0 {
			if now.Before(next) {
				time.Sleep(next.Sub(now))
			}
			next = next.Add(wk.interval)
		}
		ss := wk.sessions[wk.r.Intn(len(wk.sessions))]
		ev := wk.makeEvent(ss, chanChurn, batch)
		wk.post(ss, ev)
	}
}

// makeEvent generates one churn event from the worker's belief of the
// session state and updates the belief optimistically. In scenario mode a
// flash-crowd burst biases churn to pure arrivals (the crowd shows up; it
// drains through normal churn afterwards) and the mobile component attaches
// random-waypoint moves to a slice of events.
func (wk *worker) makeEvent(ss *sessionState, chanChurn float64, batch int) online.Event {
	var ev online.Event
	flash := wk.sc != nil && wk.sc.inFlash(time.Now())
	if !flash && wk.r.Float64() < chanChurn && ss.channels > 0 {
		i := wk.r.Intn(ss.channels)
		if ss.offline[i] {
			ev.ChannelUp = append(ev.ChannelUp, i)
		} else {
			ev.ChannelDown = append(ev.ChannelDown, i)
		}
		ss.offline[i] = !ss.offline[i]
		return ev
	}
	for b := 0; b < batch; b++ {
		j := wk.r.Intn(ss.buyers)
		if flash && ss.active[j] {
			continue // burst traffic only joins; never kicks anyone out
		}
		if ss.active[j] {
			ev.Depart = append(ev.Depart, j)
		} else {
			ev.Arrive = append(ev.Arrive, j)
		}
		ss.active[j] = !ss.active[j]
	}
	if wk.sc != nil && wk.sc.mobile && len(ss.pos) > 0 && wk.r.Float64() < wk.moveProb {
		ev.Move = wk.makeMoves(ss)
	}
	return ev
}

// makeMoves advances one to three buyers a stride along their waypoint legs,
// redrawing a fresh waypoint whenever one is reached — the random-waypoint
// model over the deployment area, tracked client-side so the posted
// positions form coherent trajectories rather than teleports.
func (wk *worker) makeMoves(ss *sessionState) []online.BuyerMove {
	const stride = 1.25
	moves := make([]online.BuyerMove, 0, 3)
	for n := 1 + wk.r.Intn(3); n > 0; n-- {
		j := wk.r.Intn(len(ss.pos))
		p, dst := ss.pos[j], ss.wp[j]
		dx, dy := dst.X-p.X, dst.Y-p.Y
		if d := math.Hypot(dx, dy); d <= stride {
			p = dst
			ss.wp[j] = geom.PaperArea().RandomPoint(wk.r)
		} else {
			p = geom.Point{X: p.X + dx/d*stride, Y: p.Y + dy/d*stride}
		}
		ss.pos[j] = p
		moves = append(moves, online.BuyerMove{Buyer: j, To: p})
	}
	return moves
}

// post delivers one event, failing over across cluster nodes when there
// are any. Every attempt whose fate is unknown (transport error after the
// request left, or a non-503 5xx) joins the unacked ledger tail before the
// next attempt — each attempt can have been applied at most once, so the
// verify bounds stay sound even when a retry later succeeds (recordAck
// then demotes the tail to the ambiguity count). Connection refusal and
// the follower's 503 write gate are definitely-not-applied, so they retry
// cleanly without touching the ledger. With a single node the budget is
// one attempt and the behavior is exactly the pre-cluster one.
func (wk *worker) post(ss *sessionState, ev online.Event) {
	var body []byte
	contentType := "application/json"
	if wk.binary {
		body = eventlog.EncodeBatch([]online.Event{ev})
		contentType = eventlog.ContentType
	} else {
		var err error
		if body, err = json.Marshal(ev); err != nil {
			wk.errors++
			wk.cErr.Inc()
			return
		}
	}
	for try := 0; try < wk.rt.attempts(); try++ {
		if try > 0 {
			time.Sleep(25 * time.Millisecond) // failover pause: let a promote land
		}
		base := wk.rt.base()
		req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+ss.id+"/events", bytes.NewReader(body))
		if err != nil {
			wk.errors++
			wk.cErr.Inc()
			return
		}
		req.Header.Set("Content-Type", contentType)
		// A fresh traceparent per request makes each event a distinct trace in
		// the server's flight recorder, findable by the echoed X-Request-Id.
		req.Header.Set("traceparent", trace.FormatTraceparent(trace.SpanContext{
			Trace: trace.NewTraceID(), Span: trace.NewSpanID(),
		}))
		wk.requests++
		wk.cReq.Inc()
		start := time.Now()
		resp, err := wk.client.Do(req)
		lat := time.Since(start).Seconds()
		if err != nil {
			// The request may have been applied before the connection died —
			// unknown fate, so it joins the unacked ledger tail. Connection
			// refused proves the server never saw it.
			if wk.record && !definitelyNotSent(err) {
				ss.unacked = append(ss.unacked, ev)
			}
			wk.rt.advance(base, "")
			continue
		}
		respBody, readErr := io.ReadAll(resp.Body)
		leaderHint := resp.Header.Get("X-Leader")
		resp.Body.Close()
		wk.lat.Observe(lat)
		if lat > wk.maxSec {
			wk.maxSec = lat
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			wk.ok++
			wk.cOK.Inc()
			if wk.record {
				wk.recordAck(ss, ev, respBody, readErr)
			}
			return
		case resp.StatusCode == http.StatusTooManyRequests:
			wk.rejected++
			wk.cRej.Inc()
			time.Sleep(2 * time.Millisecond) // brief backoff on admission rejects
			return
		case resp.StatusCode == http.StatusServiceUnavailable && wk.rt.clustered():
			// Follower write gate or a draining node: rejected before any
			// mutation, so retry against the next node (or the leader the
			// follower named in X-Leader) without widening the ledger.
			wk.rt.advance(base, leaderHint)
			continue
		case resp.StatusCode >= 500 && wk.rt.clustered():
			// No durability promise either way: unknown fate, then retry.
			if wk.record {
				ss.unacked = append(ss.unacked, ev)
			}
			wk.rt.advance(base, leaderHint)
			continue
		default:
			wk.errors++
			wk.cErr.Inc()
			// 4xx/429/503 mean rejected before mutation. 5xx is not a durability
			// promise either way, so treat it like a lost response.
			if wk.record && resp.StatusCode >= 500 {
				ss.unacked = append(ss.unacked, ev)
			}
			return
		}
	}
	// Budget exhausted without an ack; any unknown-fate attempts are
	// already in the unacked tail.
	wk.errors++
	wk.cErr.Inc()
}

// recordAck appends an acknowledged event to the session's ledger. An ack
// arriving while earlier events sit in the unknown tail makes those events
// unplaceable in the applied order — they are demoted to an ambiguity count
// and the session loses bit-for-bit verification (never happens in a crash
// run: a dead server acks nothing).
func (wk *worker) recordAck(ss *sessionState, ev online.Event, respBody []byte, readErr error) {
	var stats online.StepStats
	if readErr == nil {
		if wk.binary {
			// Binary posts always come back in the batch shape.
			var br server.BatchResponse
			readErr = json.Unmarshal(respBody, &br)
			if readErr == nil && len(br.Results) != 1 {
				readErr = fmt.Errorf("batch response has %d results, want 1", len(br.Results))
			}
			if readErr == nil {
				stats = br.Results[0].StepStats
			}
		} else {
			readErr = json.Unmarshal(respBody, &stats)
		}
	}
	if readErr != nil {
		// Acked but stats unreadable: the event is durable, but without its
		// stats the replay cross-check would false-fail.
		ss.ambiguous += len(ss.unacked) + 1
		ss.unacked = nil
		return
	}
	if n := len(ss.unacked); n > 0 {
		ss.ambiguous += n
		ss.unacked = nil
	}
	ss.acked = append(ss.acked, AckedEvent{Event: ev, Stats: stats})
}

// buildTimeline reduces the rollup's delta windows to report points (nil
// rollup, -timeline off, produces nothing).
func buildTimeline(rollup *obs.Rollup) []TimelinePoint {
	return timelinePoints(rollup.Windows(0))
}

// timelinePoints is buildTimeline's pure core. Leading idle windows (fleet
// creation before any load) are trimmed as noise, but zero-request windows
// after load has started are kept and marked Empty: a scenario valley that
// produced no requests is data, and silently dropping the window would
// splice its neighbors into a series that never dipped.
func timelinePoints(ws []obs.Window) []TimelinePoint {
	var points []TimelinePoint
	for _, w := range ws {
		p := TimelinePoint{
			StartMS:  w.StartMS,
			EndMS:    w.EndMS,
			Requests: w.Counters["specload.requests"],
			OK:       w.Counters["specload.ok"],
			Rejected: w.Counters["specload.rejected"],
			Errors:   w.Counters["specload.errors"],
			OKPerSec: w.Rate("specload.ok"),
		}
		if p.Requests == 0 {
			if len(points) == 0 {
				continue // leading idle windows (fleet creation) are noise
			}
			p.Empty = true
		}
		if hs := w.Histograms["specload.request_seconds"]; hs.Count > 0 {
			p.P50MS = hs.Quantile(0.50) * 1e3
			p.P99MS = hs.Quantile(0.99) * 1e3
		}
		points = append(points, p)
	}
	return points
}

func fetchSnapshot(client *http.Client, base string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := client.Get(base + "/debug/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// finalActive sums active buyers across the fleet from the server's own
// snapshots — a sanity signal that the sessions really churned.
func finalActive(client *http.Client, base string, states []*sessionState) int {
	total := 0
	for _, ss := range states {
		resp, err := client.Get(base + "/v1/sessions/" + ss.id)
		if err != nil {
			continue
		}
		var got server.CreateResponse
		if json.NewDecoder(resp.Body).Decode(&got) == nil {
			total += got.Active
		}
		resp.Body.Close()
	}
	return total
}
