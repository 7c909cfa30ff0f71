package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/server"
	"specmatch/internal/trace"
	"specmatch/internal/xrand"
)

const (
	// Setup boots the node and creates the fleet at least minSetupRounds
	// times and until the rounds add up to the plan's setup time, at most
	// maxSetupRounds times; setup_s is the median round and the last boot is
	// the one measured. At 20 seconds a 20 ms in-memory setup thus gets about
	// 50 rounds and a half-second fig7a setup 5.
	minSetupRounds = 5
	maxSetupRounds = 100
	// recoverCycles reopens a durable node's drained data dir this many
	// times; recover_s is their median.
	recoverCycles = 5
	// tracedFlight is the traced run's flight ring. The traced phase is cut
	// short so it is expected to record 70% of it, and a phase that overwrote
	// any of its own spans fails the run.
	tracedFlight = 1 << 18
)

type options struct {
	seed     int64
	seconds  int
	traced   bool
	traceDir string // where traced runs write <workload>.trace.json; empty = nowhere
	dataDir  string // parent of the runs' data directories
}

// plan splits a run's measured seconds into phases. Untraced: warm-up,
// paced open loop, saturated closed loop. Traced: warm-up, an untraced
// paced stretch (the overhead baseline), then the traced paced stretch,
// which may end early to fit the flight ring. Setup rounds come before and
// add up to at least setup.
type plan struct {
	setup, warm, paced, last time.Duration
}

func planFor(seconds int) plan {
	total := time.Duration(seconds) * time.Second
	return plan{setup: total * 5 / 100, warm: total * 15 / 100, paced: total * 40 / 100, last: total * 45 / 100}
}

// poolPerSession sizes each session's pre-encoded body pool for the plan:
// the paced rate over the paced stretches plus twice the expected saturated
// rate over the last phase.
func (p plan) poolPerSession(w *workload) int {
	reqs := w.pacedRate*(p.warm+p.paced+p.last).Seconds() + 2*w.satHint*p.last.Seconds()
	return int(reqs)/w.sessions + fingerprintBodies
}

// result is one workload run's outcome.
type result struct {
	workload  string
	metrics   map[string]measured
	attempted int
	failed    int
	problems  []string // anything that makes the run's output wrong
	notes     []string
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64, n int) { r.metrics[name] = measured{v, n} }

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func runWorkload(w *workload, o options) (*result, error) {
	res := &result{workload: w.name, metrics: make(map[string]measured)}
	pl := planFor(o.seconds)
	in, err := makeInputs(w, o.seed, pl.poolPerSession(w))
	if err != nil {
		return nil, err
	}
	if want, ok := pinnedFingerprints[w.name]; o.seed == 1 && ok && want != in.fingerprint {
		res.problem("input fingerprint %s, pinned seed-1 value %s: the workload's inputs changed", in.fingerprint, want)
	}
	res.notes = append(res.notes, "inputs sha256 "+in.fingerprint)

	dir := filepath.Join(o.dataDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(dir)
	sessions := newSessions(in, w)
	client := newClient()
	defer client.CloseIdleConnections()
	flightCap := productionFlight
	var ht *handlerTimes
	var wrap func(http.Handler) http.Handler
	if o.traced {
		flightCap = tracedFlight
		ht = newHandlerTimes()
		wrap = ht.wrap
	}
	applySteps := cap(sessions[0].stats) * len(sessions)
	pacedParts, lastParts := make([]*phaseStats, numSenders), make([]*phaseStats, numSenders)
	for i := range pacedParts {
		pacedParts[i] = newPhaseStats(int(w.pacedRate*pl.paced.Seconds()/numSenders)+64, pl.paced, w.follower)
		expect := int(2*w.satHint*pl.last.Seconds()/numSenders) + 64
		if o.traced {
			expect = int(w.pacedRate*pl.last.Seconds()/numSenders) + 64
		}
		lastParts[i] = newPhaseStats(expect, pl.last, false)
	}

	// Setup: boot and create the fleet several times; keep the last. The
	// heap baseline is read before the first boot: a discarded node's
	// connection goroutines may still hold it live during later boots.
	heapBase := heapInuse()
	var setups []float64
	var spent time.Duration
	var n *node
	for {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		fl := trace.NewFlight(flightCap)
		// Every round starts from a collected heap, so no round pays for
		// sweeping the previous round's node.
		runtime.GC()
		t0 := time.Now()
		if n, err = boot(w, dir, fl, applySteps, wrap); err != nil {
			return nil, err
		}
		if err := createSessions(client, n.url, sessions); err != nil {
			n.close()
			return nil, err
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if len(setups) >= maxSetupRounds || (len(setups) >= minSetupRounds && spent >= pl.setup) {
			break
		}
		if err := n.close(); err != nil {
			return nil, err
		}
		client.CloseIdleConnections()
	}
	closed := false
	defer func() {
		if !closed {
			n.close()
		}
	}()
	res.set("setup_s", median(setups), len(setups))
	sorted := append([]float64(nil), setups...)
	sort.Float64s(sorted)
	res.notes = append(res.notes, fmt.Sprintf("setup: %d rounds, %.4f to %.4f s", len(sorted), sorted[0], sorted[len(sorted)-1]))

	// Load.
	start := time.Now()
	senders := make([]*sender, numSenders)
	for i := range senders {
		s := &sender{
			w: w, client: client, base: n.url, fl: n.fl, epoch: start,
			sched: newPoisson(xrand.Split(o.seed, schedStreams+i), w.pacedRate/numSenders),
		}
		for k := i; k < len(sessions); k += numSenders {
			s.sessions = append(s.sessions, sessions[k])
		}
		s.due = start.Add(s.sched.next())
		senders[i] = s
	}
	warmEnd := start.Add(pl.warm)
	runPhase(senders, nil, func(s *sender, _ *phaseStats) { s.pace(warmEnd, nil, false) })
	pacedFrom := time.Now()
	pacedSpans := n.fl.Recorded()
	pacedEnd := warmEnd.Add(pl.paced)
	paced := runPhase(senders, pacedParts, func(s *sender, st *phaseStats) { s.pace(pacedEnd, st, false) })
	pacedTo := time.Now()
	res.attempted, res.failed = paced.attempts, paced.failures
	// The heap is read after the paced phase, whose open loop hands every
	// commit the same work: after saturation it would grow with throughput,
	// because the engines' memos fill as they see more events.
	res.set("heap_mb", float64(int64(heapInuse())-int64(heapBase))/(1<<20), 1)

	if o.traced {
		spanRate := float64(n.fl.Recorded()-pacedSpans) / pacedTo.Sub(pacedFrom).Seconds()
		if err := tracedPhase(w, o, pl, n, ht, senders, paced, spanRate, lastParts, res); err != nil {
			return nil, err
		}
	} else {
		satEnd := time.Now().Add(pl.last)
		sat := runPhase(senders, lastParts, func(s *sender, st *phaseStats) { s.saturate(satEnd, st) })
		res.attempted += sat.attempts
		res.failed += sat.failures
		rate, windows := eventRate(sat, pl.last)
		res.set("events_per_s", rate, windows)
		res.notes = append(res.notes, "closed-loop events per second: "+strings.Trim(fmt.Sprint(sat.perSecond[:windows]), "[]"))
		ack := summarize(sat.eventLat)
		res.set("ack_p50_ms", ack.P50, ack.N)
		p99, windows := windowedP99(sat.eventLat, sat.eventAt, 1000)
		res.set("ack_p99_ms", p99, windows)
	}
	pacedSum := summarize(paced.eventLat)
	res.set("paced_p50_ms", pacedSum.P50, pacedSum.N)
	res.set("bench.paced_p99_ms", pacedSum.P99, pacedSum.N)
	res.set("bench.ack_max_ms", pacedSum.Max, pacedSum.N)
	late := summarize(paced.late)
	res.set("bench.gen_late_p99_ms", late.P99, late.N)
	read := summarize(paced.readLat)
	res.set("read_p50_ms", read.P50, read.N)

	// Drain and verify.
	if w.follower {
		if err := n.caughtUp(30 * time.Second); err != nil {
			res.problem("%v", err)
		}
		rl := replicaLayerOf(n.applies, paced.acks, pacedFrom, pacedTo)
		if rl.missing > 0 {
			res.problem("follower never applied %d acknowledged requests", rl.missing)
		}
		lag := summarize(rl.lag)
		res.set("repl_lag_p50_ms", lag.P50, lag.N)
		res.set("replica.lag_p99_ms", lag.P99, lag.N)
		res.set("replica.deliver_ms_p50", summarize(rl.deliver).P50, len(rl.deliver))
		res.set("replica.apply_ms_p50", summarize(rl.applyMS).P50, len(rl.applyMS))
		res.set("replica.records_per_apply", ratio(float64(rl.records), float64(len(rl.applyMS))), len(rl.applyMS))
	}
	if err := finalSnapshots(client, n, sessions, res); err != nil {
		return nil, err
	}
	closed = true
	if err := n.close(); err != nil {
		res.problem("shutdown: %v", err)
	}
	if w.durable {
		rec := recoverFleet(filepath.Join(dir, "leader"), sessions, res)
		res.set("recover_s", median(rec), len(rec))
	}
	v := replayAll(w, sessions)
	for _, m := range v.mismatches {
		res.problem("oracle: %s", m)
	}
	if v.unverifiable > 0 {
		res.problem("oracle: %d sessions touched by requests of unknown fate cannot be verified", v.unverifiable)
	}
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d/%d sessions verified against an offline replay of %d acknowledged events",
		v.verified, len(sessions), v.events))
	res.set("core.replay_us_per_event", ratio(float64(v.replayNS)/1e3, float64(v.events)), v.events)
	res.set("eventlog.decode_us_per_event", ratio(float64(v.decodeNS)/1e3, float64(v.events)), v.events)
	res.set("eventlog.encode_us_per_event", ratio(float64(v.encodeNS)/1e3, float64(v.events)), v.events)
	return res, nil
}

// tracedPhase runs the traced paced stretch after the untraced one and
// fills in the per-layer metrics from its spans and counters.
func tracedPhase(w *workload, o options, pl plan, n *node, ht *handlerTimes, senders []*sender,
	untraced *phaseStats, spanRate float64, parts []*phaseStats, res *result) error {
	// Size the stretch from the span rate the untraced stretch recorded.
	length := pl.last
	if spanRate > 0 {
		length = min(length, time.Duration(float64(tracedFlight)*0.7/spanRate*float64(time.Second)))
	}
	before := n.reg.Snapshot()
	rec0 := n.fl.Recorded()
	from := time.Now()
	depth := sampleDepth(n.reg, n.srv.Store().NumShards())
	traced := runPhase(senders, parts, func(s *sender, st *phaseStats) { s.pace(from.Add(length), st, true) })
	qmax := depth.finish()
	after := n.reg.Snapshot()
	if rec := n.fl.Recorded() - rec0; rec > tracedFlight {
		return fmt.Errorf("traced phase recorded %d spans into a %d-span ring: spans were overwritten", rec, tracedFlight)
	}
	spans := window(n.fl.Snapshot(), from)
	if k := orphans(spans); k > 0 {
		res.problem("trace: %d orphan spans", k)
	}
	if o.traceDir != "" {
		if err := writeTrace(filepath.Join(o.traceDir, w.name+".trace.json"), spans); err != nil {
			return err
		}
	}
	res.attempted += traced.attempts
	res.failed += traced.failures
	res.notes = append(res.notes, fmt.Sprintf("traced stretch: %.2fs, %d requests, %d spans, 0 overwritten",
		time.Since(from).Seconds(), traced.attempts, len(spans)))

	sl := analyzeSpans(spans, ht)
	d := deltaOf(before, after)
	set := func(name string, xs []float64, q float64) {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		res.set(name, quantile(s, q), len(s))
	}
	set("core.dirty_us_p50", sl.dirty, 0.5)
	steps := d.get("core.incremental.steps")
	res.set("core.dirty_buyers_per_step", ratio(d.get("core.incremental.dirty_buyers"), steps), int(steps))
	res.set("core.solves_per_step", ratio(d.get("core.incremental.solves"), steps), int(steps))
	hits, solves := d.get("core.incremental.memo_hits"), d.get("core.incremental.solves")
	res.set("core.memo_hit_ratio", ratio(hits, hits+solves), int(steps))
	set("online.step_self_us_p50", sl.stepSelf, 0.5)
	applied := d.get("server.events.applied")
	res.set("online.moves_per_event", ratio(d.get("server.churn.moved"), applied), int(applied))
	set("server.handler_us_p50", sl.handler, 0.5)
	set("server.decode_us_p50", sl.decode, 0.5)
	set("server.reply_us_p50", sl.reply, 0.5)
	set("server.snapshot_us_p50", sl.snapshot, 0.5)
	rejected := d.get("server.rejected.queue_full") + d.get("server.rejected.session_limit") + d.get("server.rejected.draining")
	res.set("server.rejected", rejected, traced.attempts)
	set("transport.overhead_us_p50", sl.transport, 0.5)
	set("queue.wait_us_p50", sl.queueWait, 0.5)
	set("queue.wait_us_p99", sl.queueWait, 0.99)
	res.set("queue.depth_max", float64(qmax), 1)
	set("wal.wait_us_p50", sl.walWait, 0.5)
	set("wal.wait_us_p99", sl.walWait, 0.99)
	fsyncs := d.get("server.wal.fsyncs")
	res.set("wal.records_per_fsync", ratio(d.get("server.wal.appends"), fsyncs), int(fsyncs))
	res.set("wal.bytes_per_event", ratio(d.get("server.wal.append_bytes"), applied), int(applied))
	fsyncP50 := 0.0
	if d.fsync.Count > 0 {
		fsyncP50 = d.fsync.Quantile(0.5) * 1e3
	}
	res.set("wal.fsync_ms_p50", fsyncP50, int(d.fsync.Count))
	res.set("wal.checkpoints", d.get("server.wal.checkpoints"), 1)
	res.set("wal.checkpoint_ms_max", sl.checkpointMaxMS, int(d.get("server.wal.checkpoints")))
	tracedP50 := summarize(traced.eventLat).P50
	untracedP50 := summarize(untraced.eventLat).P50
	res.set("trace.overhead_frac", ratio(tracedP50, untracedP50)-1, len(traced.eventLat))
	res.set("trace.unattributed_frac", ratio(float64(sl.unattributedNS), float64(sl.clientNS)), traced.attempts-sl.incomplete)
	if sl.incomplete > 0 {
		res.notes = append(res.notes, fmt.Sprintf("trace: %d requests without a complete span tree", sl.incomplete))
	}
	return nil
}

// finalSnapshots reads every session's snapshot from the leader after load
// stops and, for replicated workloads, checks the follower holds the same.
func finalSnapshots(client *http.Client, n *node, sessions []*session, res *result) error {
	for _, s := range sessions {
		resp, err := client.Get(n.url + "/v1/sessions/" + s.id)
		if err != nil {
			return fmt.Errorf("final snapshot of %s: %w", s.id, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("final snapshot of %s: %w", s.id, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("final snapshot of %s: status %d: %s", s.id, resp.StatusCode, data)
		}
		var cr server.CreateResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			return fmt.Errorf("final snapshot of %s: %w", s.id, err)
		}
		s.final = cr.Snapshot
		if n.fsrv == nil {
			continue
		}
		fs, err := n.fsrv.Store().Get(context.Background(), s.id)
		switch {
		case err != nil:
			res.problem("follower: session %s: %v", s.id, err)
		case !sameSnapshot(fs, s.final):
			res.problem("follower: session %s differs from the leader", s.id)
		}
	}
	return nil
}

// recoverFleet reopens the drained data dir recoverCycles times, checks
// every recovered session equals its pre-drain snapshot, and returns each
// cycle's server.New + Drain time in seconds.
func recoverFleet(dir string, sessions []*session, res *result) []float64 {
	var times []float64
	for c := 0; c < recoverCycles; c++ {
		cfg := serverConfig(dir, obs.NewRegistry(), trace.NewFlight(productionFlight))
		t0 := time.Now()
		srv, err := server.New(cfg)
		opened := time.Since(t0)
		if err != nil {
			res.problem("recover cycle %d: %v", c, err)
			return times
		}
		for _, s := range sessions {
			snap, err := srv.Store().Get(context.Background(), s.id)
			if err != nil || !sameSnapshot(snap, s.final) {
				res.problem("recover cycle %d: session %s does not match its pre-drain snapshot (err %v)", c, s.id, err)
			}
		}
		t1 := time.Now()
		srv.Drain()
		times = append(times, (opened + time.Since(t1)).Seconds())
	}
	return times
}

func writeTrace(path string, spans []trace.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, spans, uint64(len(spans)), 0); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
