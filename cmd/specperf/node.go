package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"specmatch/internal/core"
	"specmatch/internal/eventlog"
	"specmatch/internal/obs"
	"specmatch/internal/replica"
	"specmatch/internal/server"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// productionFlight is specserved's default flight-ring capacity: the
// always-on tracing every untraced run keeps.
const productionFlight = 1 << 16

// serverConfig mirrors cmd/specserved's flag defaults, with one deviation:
// the anomaly watchdog is off, because the benchmark's own step from paced
// to saturated load trips its p99 trigger and would start a CPU profile
// mid-run.
func serverConfig(dataDir string, reg *obs.Registry, fl *trace.Flight) server.Config {
	return server.Config{
		QueueDepth:      256,
		MaxSessions:     16384,
		RequestTimeout:  5 * time.Second,
		Engine:          core.Options{Workers: 1},
		Metrics:         reg,
		Flight:          fl,
		SessionEvents:   4096,
		DataDir:         dataDir,
		CheckpointEvery: 4096,
		SampleInterval:  time.Second,
		SeriesWindows:   300,
		Anomaly:         server.AnomalyConfig{Disabled: true},
	}
}

// node is the system under test: a leader served over loopback HTTP and,
// for replicated workloads, an in-process follower streaming from it.
type node struct {
	reg *obs.Registry
	fl  *trace.Flight
	srv *server.Server
	hs  *server.HTTPServer
	url string

	fsrv    *server.Server
	fol     *replica.Follower
	applies *applyLog
}

// boot starts a node over dir (leader/ and follower/ below it; unused for
// in-memory workloads) with fl as the leader's flight ring. applySteps
// reserves the follower's Apply log; wrap, when set, wraps the leader's root
// handler.
func boot(w *workload, dir string, fl *trace.Flight, applySteps int, wrap func(http.Handler) http.Handler) (*node, error) {
	n := &node{reg: obs.NewRegistry(), fl: fl}
	leaderDir := ""
	if w.durable {
		leaderDir = filepath.Join(dir, "leader")
	}
	srv, err := server.New(serverConfig(leaderDir, n.reg, n.fl))
	if err != nil {
		return nil, fmt.Errorf("leader: %w", err)
	}
	n.srv = srv
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	if n.hs, err = server.ListenAndServe("127.0.0.1:0", h); err != nil {
		srv.Drain()
		return nil, err
	}
	n.url = "http://" + n.hs.Addr().String()
	if w.follower {
		if err := n.startFollower(filepath.Join(dir, "follower"), applySteps); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

// startFollower wires a follower the way specserved -follow does: its own
// durable store with the leader's shard count, tailing every shard stream
// from its recovered LSNs, through the benchmark's timing Apply wrapper.
func (n *node) startFollower(dir string, applySteps int) error {
	cfg := serverConfig(dir, obs.NewRegistry(), trace.NewFlight(productionFlight))
	cfg.Shards = n.srv.Store().NumShards()
	fsrv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	n.fsrv = fsrv
	var from []uint64
	for _, sl := range fsrv.Store().ShardStatuses() {
		from = append(from, sl.DurableLSN)
	}
	n.applies = newApplyLog(fsrv.Store().ApplyReplicated, applySteps)
	n.fol, err = replica.Start(replica.Config{
		Leader:  n.url,
		Shards:  cfg.Shards,
		From:    from,
		Apply:   n.applies.apply,
		Metrics: cfg.Metrics,
		Flight:  cfg.Flight,
	})
	if err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	fsrv.BecomeFollower(n.url, n.fol.Status, n.fol.Stop)
	return nil
}

// caughtUp waits until the follower has applied every shard's durable tail.
func (n *node) caughtUp(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		behind := false
		for _, sl := range n.srv.Store().ShardStatuses() {
			if n.fol.AppliedLSN(sl.Shard) < sl.DurableLSN {
				behind = true
			}
		}
		if !behind {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still behind the leader after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close stops the follower, then shuts the leader down the way specserved
// does on SIGTERM: end replication streams, stop the listener, drain.
func (n *node) close() error {
	if n.fol != nil {
		n.fol.Stop()
	}
	if n.fsrv != nil {
		n.fsrv.Drain()
	}
	n.srv.StopStreams()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	n.srv.Drain()
	return err
}

// applyLog wraps the follower store's replicated-apply entry point and
// records every call: when it started and returned, how many records it
// carried, and which (session, LSN) step records it made durable. Storage
// is reserved up front so recording does not show in heap_mb.
type applyLog struct {
	inner replica.ApplyFunc
	mu    sync.Mutex
	calls []applyCall
	steps []appliedStep
}

type applyCall struct {
	start, end time.Time
	records    int
}

type appliedStep struct {
	key        lagKey
	start, end time.Time // the applying call's
}

// lagKey names one acknowledged step record: a session and the shard LSN
// its leader assigned.
type lagKey struct {
	session string
	lsn     uint64
}

func newApplyLog(inner replica.ApplyFunc, steps int) *applyLog {
	return &applyLog{inner: inner, calls: make([]applyCall, 0, steps/2), steps: make([]appliedStep, 0, steps)}
}

func (a *applyLog) apply(ctx context.Context, shard int, recs []wal.Record) (uint64, error) {
	start := time.Now()
	lsn, err := a.inner(ctx, shard, recs)
	end := time.Now()
	if err != nil {
		return lsn, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls = append(a.calls, applyCall{start: start, end: end, records: len(recs)})
	for _, r := range recs {
		if r.Type != wal.TypeStep {
			continue
		}
		if st, derr := eventlog.DecodeStep(r.Body); derr == nil {
			a.steps = append(a.steps, appliedStep{key: lagKey{session: st.ID, lsn: r.LSN}, start: start, end: end})
		}
	}
	return lsn, nil
}

// recorded copies what has been recorded so far.
func (a *applyLog) recorded() ([]applyCall, []appliedStep) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]applyCall(nil), a.calls...), append([]appliedStep(nil), a.steps...)
}
