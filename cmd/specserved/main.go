// Command specserved hosts live spectrum-market sessions behind an
// HTTP/JSON API: create a market, stream churn events into it, trigger
// rebuilds, and read the current matching — the paper's mechanism run as a
// continuously operating, multi-tenant service instead of a one-shot batch.
//
// Sessions live in a sharded store (one event-loop goroutine per shard, so
// per-session operations stay deterministic), shard queues are bounded with
// 429 + Retry-After on overload, every request carries a deadline, and
// SIGTERM drains gracefully: stop accepting, flush the queues, then exit.
// With -data-dir the store is durable: every mutation is written to a
// per-shard write-ahead log and acknowledged only after it is fsynced,
// checkpoints bound replay time, and startup recovers every session —
// kill -9 loses nothing a client was told succeeded. Log records, the
// event wire format, and checkpoints all share one versioned schema
// (internal/eventlog), so cmd/specwal inspects any of them offline and
// pre-schema (v0 JSON) data dirs recover unchanged.
//
// Durable stores also support point-in-time forks: POST
// /v1/sessions/{id}/fork?lsn=N replays the session's durable prefix up to
// shard LSN N (0 or omitted = the current tail) into a brand-new live
// session, so a past state can be re-branched without disturbing the
// original.
//
//	specserved -addr 127.0.0.1:7937
//	curl -XPOST localhost:7937/v1/sessions -d "{\"spec\": $(specgen -sellers 3 -buyers 8)}"
//	curl -XPOST localhost:7937/v1/sessions/m00000001/events -d '{"arrive":[0,1,2]}'
//	curl -XPOST localhost:7937/v1/sessions/m00000001/fork?lsn=12
//	curl localhost:7937/v1/sessions/m00000001
//	curl localhost:7937/debug/metrics
//
// Routes, payloads, and the server.* metric names are documented in
// PROTOCOL.md; cmd/specload drives this server at a target rate.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/replica"
	"specmatch/internal/server"
	"specmatch/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specserved:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specserved", flag.ContinueOnError)
	var (
		addr           = fs.String("addr", "127.0.0.1:7937", "listen address (port 0 = ephemeral, printed on startup)")
		shards         = fs.Int("shards", 0, "session shards, one event-loop goroutine each (0 = GOMAXPROCS)")
		queueDepth     = fs.Int("queue-depth", 256, "per-shard pending-operation bound; beyond it requests get 429")
		maxSessions    = fs.Int("max-sessions", 16384, "cap on live sessions across all shards")
		requestTimeout = fs.Duration("request-timeout", 5*time.Second, "per-request deadline")
		drainTimeout   = fs.Duration("drain-timeout", 10*time.Second, "bound on the SIGTERM graceful drain")
		metricsJSON    = fs.String("metrics-json", "", "write a final metrics snapshot JSON to this path ('-' = stdout) on clean exit")
		flightCap      = fs.Int("flight", 1<<16, "flight-recorder capacity in spans, a bounded ring always recording (0 disables tracing)")
		traceDump      = fs.String("trace-dump", "specserved-trace.json", "flight-recorder dump path, written on SIGQUIT, on any 5xx (rate-limited), and at drain")
		dataDir        = fs.String("data-dir", "", "durable session state: per-shard WAL + checkpoints under this directory; events ack only after fsync, startup recovers every session (empty = in-memory only)")
		checkpointEach = fs.Int("checkpoint-every", 4096, "checkpoint + truncate a shard's WAL after this many durable records (negative = only at startup and drain)")
		walRepair      = fs.Bool("wal-repair", false, "on recovery, truncate at mid-log corruption instead of refusing to start (data past the corruption is lost)")
		follow         = fs.String("follow", "", "run as a read-only replica of this leader URL (e.g. http://127.0.0.1:7937): tail every shard's WAL stream, apply locally, serve reads; requires -data-dir. POST /v1/replica/promote turns the node into a leader")
		sampleInterval = fs.Duration("sample-interval", time.Second, "metrics sampling interval for /debug/metrics/series and the anomaly watchdog (negative = disable the sampler)")
		seriesWindows  = fs.Int("series-windows", 300, "delta windows retained by the series ring")
		evidenceDir    = fs.String("evidence-dir", "", "where anomaly evidence (flight dump + CPU profile) lands, served at /debug/evidence (empty = <data-dir>/evidence; no data dir disables capture)")
		anomP99        = fs.Float64("anomaly-p99-factor", 0, "anomaly trigger: interval p99 above this multiple of the trailing baseline (0 = default 4)")
		anomQueue      = fs.Float64("anomaly-queue-frac", 0, "anomaly trigger: any shard queue above this fraction of -queue-depth (0 = default 0.9)")
		anomLag        = fs.Int64("anomaly-lag-lsn", 0, "anomaly trigger: follower lag above this many LSNs (0 = default 65536, negative = off)")
		anomSustain    = fs.Int("anomaly-sustain", 0, "consecutive anomalous windows before evidence capture (0 = default 3)")
		anomRate       = fs.Duration("anomaly-rate-limit", 0, "per-trigger-type evidence capture budget (0 = default 60s, negative = unlimited)")
		anomOff        = fs.Bool("anomaly-off", false, "disable the anomaly watchdog")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help already printed usage
		}
		return err
	}

	reg := obs.NewRegistry()
	var fl *trace.Flight
	if *flightCap > 0 {
		fl = trace.NewFlight(*flightCap)
	}
	dump := newTraceDumper(fl, *traceDump, out)
	if *follow != "" {
		// A follower's shard count must match its leader's (records are
		// streamed per shard), so learn it from the leader before the store
		// opens. This also verifies the leader is up and durable.
		*follow = strings.TrimRight(*follow, "/")
		n, err := leaderShards(*follow)
		if err != nil {
			return err
		}
		if *dataDir == "" {
			return fmt.Errorf("-follow requires -data-dir: a replica appends the leader's records to its own WAL")
		}
		if *shards != 0 && *shards != n {
			return fmt.Errorf("-shards %d does not match the leader's %d shards (session ids are sharded by hash, so the counts must match)", *shards, n)
		}
		*shards = n
	}
	srv, err := server.New(server.Config{
		Shards:          *shards,
		QueueDepth:      *queueDepth,
		MaxSessions:     *maxSessions,
		RequestTimeout:  *requestTimeout,
		Metrics:         reg,
		Flight:          fl,
		OnServerError:   dump.onServerError,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEach,
		WALRepair:       *walRepair,
		SampleInterval:  *sampleInterval,
		SeriesWindows:   *seriesWindows,
		EvidenceDir:     *evidenceDir,
		Anomaly: server.AnomalyConfig{
			Disabled:  *anomOff,
			P99Factor: *anomP99,
			QueueFrac: *anomQueue,
			LagLSN:    *anomLag,
			Sustain:   *anomSustain,
			RateLimit: *anomRate,
		},
	})
	if err != nil {
		return err
	}
	if *dataDir != "" {
		rec := srv.Store().Recovery
		fmt.Fprintf(out, "recovered %d sessions from %s (%d events replayed, %d torn records dropped, %d repaired away)\n",
			rec.Sessions, *dataDir, rec.Records, rec.TornRecords, rec.RepairedRecords)
	}
	var fol *replica.Follower
	if *follow != "" {
		// Resume each shard's stream from this store's own durable tail:
		// everything below it survived our recovery, everything above comes
		// from the leader.
		from := make([]uint64, 0, *shards)
		for _, sl := range srv.Store().ShardStatuses() {
			from = append(from, sl.DurableLSN)
		}
		fol, err = replica.Start(replica.Config{
			Leader:  *follow,
			Shards:  *shards,
			From:    from,
			Apply:   srv.Store().ApplyReplicated,
			Metrics: reg,
			Flight:  fl,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(out, format+"\n", args...)
			},
		})
		if err != nil {
			srv.Drain()
			return err
		}
		srv.BecomeFollower(*follow, fol.Status, fol.Stop)
		fmt.Fprintf(out, "following %s (%d shards); writes are gated until promote\n", *follow, *shards)
	}
	hs, err := server.ListenAndServe(*addr, srv.Handler())
	if err != nil {
		srv.Drain() // close the WAL cleanly; the listener never started
		return err
	}
	fmt.Fprintf(out, "specserved listening on http://%s\n", hs.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopQuit := dump.onSIGQUIT()
	defer stopQuit()
	select {
	case <-ctx.Done():
		// Signal received: drain below.
	case err := <-hs.ServeErr():
		if fol != nil {
			fol.Stop()
		}
		srv.Drain()
		return fmt.Errorf("serve: %w", err)
	}
	stop()

	fmt.Fprintln(out, "draining: refusing new work, flushing shard queues")
	if fol != nil {
		// Stop tailing before the drain barrier so no replicated apply
		// races the final checkpoints. Idempotent if promote already ran.
		fol.Stop()
	}
	srv.StopStreams()
	sdCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(sdCtx)
	srv.Drain()

	fmt.Fprintf(out, "drained: %d live sessions, %d events applied\n",
		srv.Store().Len(), reg.CounterValue("server.events.applied"))
	dump.dump("drain")
	if *metricsJSON != "" {
		if err := obs.WriteSnapshotFile(reg, *metricsJSON, out); err != nil {
			return err
		}
	}
	return shutdownErr
}

// leaderShards asks a leader's /v1/status for its shard count, retrying for
// a few seconds so a follower can start alongside a still-booting leader.
func leaderShards(leader string) (int, error) {
	client := &http.Client{}
	var lastErr error
	for attempt := 0; attempt < 40; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		st, err := replica.FetchStatus(context.Background(), client, leader)
		if err != nil {
			lastErr = err
			continue
		}
		if !st.Durable {
			return 0, fmt.Errorf("leader %s runs in-memory; -follow needs a leader started with -data-dir", leader)
		}
		if len(st.Shards) == 0 {
			return 0, fmt.Errorf("leader %s reports no shards", leader)
		}
		return len(st.Shards), nil
	}
	return 0, fmt.Errorf("leader %s unreachable: %w", leader, lastErr)
}

// traceDumper writes crash-safe flight-recorder dumps: atomically (tmp +
// rename, so a reader never sees a torn file) and rate-limited *per trigger
// type* — 5xx, SIGQUIT, and drain each get their own budget (one dump per
// 10s), so a 5xx storm cannot starve an operator's SIGQUIT dump, and
// neither can starve the watchdog's anomaly captures (which budget
// separately again, inside internal/server). All methods are safe with a
// nil Flight or empty path — they do nothing.
type traceDumper struct {
	fl   *trace.Flight
	path string
	out  io.Writer
	gate *server.RateGate
}

func newTraceDumper(fl *trace.Flight, path string, out io.Writer) *traceDumper {
	return &traceDumper{fl: fl, path: path, out: out, gate: server.NewRateGate(10 * time.Second)}
}

// dump writes the current snapshot; reason is echoed in the log line and
// keys the rate limit.
func (d *traceDumper) dump(reason string) {
	if d.fl == nil || d.path == "" {
		return
	}
	if !d.gate.Allow(reason) {
		return
	}
	if err := trace.WriteChromeFlightFile(d.path, d.fl); err != nil {
		fmt.Fprintf(d.out, "flight recorder: dump failed: %v\n", err)
		return
	}
	n := len(d.fl.Snapshot())
	fmt.Fprintf(d.out, "flight recorder: dumped %d spans to %s (%s)\n", n, d.path, reason)
}

// onServerError is the server's 5xx hook; dump() itself applies the
// per-trigger budget.
func (d *traceDumper) onServerError() {
	d.dump("5xx")
}

// onSIGQUIT installs a handler goroutine that dumps on each SIGQUIT without
// exiting — the classic flight-recorder inspection signal. The returned stop
// function uninstalls it.
func (d *traceDumper) onSIGQUIT() func() {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-quit:
				d.dump("SIGQUIT")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(quit)
		close(done)
	}
}
