// Package server is the serving layer that turns the one-shot matching
// engine into a continuously operating spectrum market: it hosts many
// concurrent online.Sessions in a sharded store behind an HTTP/JSON API
// (cmd/specserved). Each shard's sessions are owned by a single goroutine
// running an event loop over a bounded queue, so per-session operations are
// serialized — deterministic and lock-free on the hot path — while distinct
// shards serve tenants in parallel. Overload is handled by admission
// control at the queue (ErrQueueFull → HTTP 429 with Retry-After), not by
// unbounded buffering, and a draining store refuses new work while flushing
// what it already accepted, which is what makes SIGTERM lossless:
// everything admitted is applied before the process exits.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specmatch/internal/core"
	"specmatch/internal/eventlog"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/replica"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// Store errors, mapped onto HTTP status codes by the handler layer.
var (
	// ErrNotFound reports an unknown session id (HTTP 404).
	ErrNotFound = errors.New("server: session not found")
	// ErrQueueFull reports an overloaded shard; the client should back off
	// and retry (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("server: shard queue full")
	// ErrSessionLimit reports that the store holds MaxSessions live
	// sessions (HTTP 429 + Retry-After).
	ErrSessionLimit = errors.New("server: session limit reached")
	// ErrDraining reports a store that is shutting down (HTTP 503).
	ErrDraining = errors.New("server: draining")
	// ErrNotDurable reports a fork on an in-memory store: a point-in-time
	// fork replays the durable log, which does not exist without a DataDir
	// (HTTP 501).
	ErrNotDurable = errors.New("server: fork requires a durable store (run with a data dir)")
	// ErrLSNHorizon reports a fork lsn outside the retained window: past the
	// shard's durable tail, below the newest checkpoint (files before it are
	// deleted on rotation), or before the session existed (HTTP 409).
	ErrLSNHorizon = errors.New("server: lsn outside the retained window")
)

// Config tunes the store and its HTTP front end.
type Config struct {
	// Shards is the number of session shards, each with its own event-loop
	// goroutine and queue. Zero means runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds each shard's pending-operation queue; a full queue
	// rejects with ErrQueueFull instead of buffering without limit. Zero
	// means 256.
	QueueDepth int
	// MaxSessions caps live sessions across all shards. Zero means 16384.
	MaxSessions int
	// RequestTimeout is the per-request deadline the HTTP layer applies to
	// every /v1 operation. Zero means 5s.
	RequestTimeout time.Duration
	// Engine is the core.Options template every hosted session runs with.
	// The engine is sequential; shards parallelize across sessions.
	Engine core.Options
	// Metrics receives the server.* instrumentation (names in PROTOCOL.md).
	// Nil disables it.
	Metrics *obs.Registry

	// Flight, when non-nil, records causal spans across the serving path:
	// http.<route> per request (parented on the client's traceparent header),
	// server.shard_op per executed store operation, and — via the sessions'
	// engine options — online.step / core.* beneath them. Nil disables
	// tracing.
	Flight *trace.Flight

	// OnServerError, when non-nil, is called (from the handler goroutine)
	// after any request completes with a 5xx status — specserved hooks a
	// rate-limited flight-recorder dump here so the spans around a failure
	// are preserved even if the process never receives a signal.
	OnServerError func()

	// SessionEvents bounds each hosted session's protocol-event recorder:
	// every Create gives the session its OWN bounded trace.Recorder keeping
	// at most this many events (overflow is counted, not retained), so a
	// long-lived session cannot grow without bound and shards never share
	// recorder state. Zero means 4096; negative disables per-session
	// recording entirely. A Recorder set on the Engine template is ignored —
	// sharing one recorder across shards would race.
	SessionEvents int

	// DataDir, when non-empty, makes the store durable: every mutation
	// (create, applied event, adopting rebuild, delete) is written to a
	// per-shard write-ahead log under DataDir and acknowledged only after
	// the append is fsynced; periodic checkpoints bound replay time. On
	// construction the store recovers every session from the newest
	// checkpoint plus log replay. Empty keeps the store purely in-memory.
	DataDir string
	// FsyncInterval batches WAL fsyncs: appends accumulate and are synced
	// together at this interval, so acknowledgement latency is bounded by
	// it while throughput stays decoupled from fsync rate. Zero means 2ms;
	// negative fsyncs every append (strict mode, mainly for tests).
	FsyncInterval time.Duration
	// CheckpointEvery rotates a shard's log after this many durable
	// records: the shard state is snapshotted atomically and the old log
	// deleted. Zero means 4096; negative disables periodic checkpoints
	// (one is still written at open and close).
	CheckpointEvery int
	// WALRepair tolerates mid-log or mid-checkpoint corruption during
	// recovery by truncating at the first corrupt frame instead of
	// refusing to start. Everything after the truncation point is lost;
	// without it, corruption anywhere but a torn tail is a startup error.
	WALRepair bool

	// SampleInterval paces the always-on metrics sampler that feeds
	// /debug/metrics/series and the anomaly watchdog: every interval the
	// registry is snapshotted and the delta window appended to a bounded
	// ring. Zero means 1s; negative disables the sampler (the series
	// endpoint then serves an empty document and no watchdog runs). The
	// sampler also needs Metrics to be non-nil.
	SampleInterval time.Duration
	// SeriesWindows bounds the retained delta windows (the series ring
	// capacity). Zero means 300 — five minutes of history at the default
	// interval.
	SeriesWindows int
	// EvidenceDir is where anomaly evidence (flight dumps + CPU profiles)
	// lands, served by GET /debug/evidence. Empty with DataDir set means
	// DataDir/evidence; empty without a DataDir disables anomaly capture.
	EvidenceDir string
	// Anomaly tunes the watchdog that turns sustained series anomalies
	// into evidence captures; see AnomalyConfig. Zero values mean
	// defaults.
	Anomaly AnomalyConfig
}

// evidenceDir resolves the node's evidence home: explicit EvidenceDir, else
// a durable store's DataDir/evidence, else none.
func (c Config) evidenceDir() string {
	if c.EvidenceDir != "" {
		return c.EvidenceDir
	}
	if c.DataDir != "" {
		return filepath.Join(c.DataDir, "evidence")
	}
	return ""
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16384
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.SessionEvents == 0 {
		c.SessionEvents = 4096
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4096
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = time.Second
	}
	if c.SeriesWindows <= 0 {
		c.SeriesWindows = 300
	}
	return c
}

type opResult struct {
	v   any
	err error
}

// op is one unit of shard work. fn runs on the shard's goroutine, so it may
// touch the shard's session map without locking; it receives the op's
// server.shard_op span context to parent any session-level spans.
type op struct {
	ctx  context.Context
	fn   func(sc trace.SpanContext) (any, error)
	done chan opResult // buffered(1): the shard never blocks on delivery

	// sc and enq exist only when the store traces: the submitting request's
	// span context and the enqueue time (for the queue_wait_us annotation).
	sc  trace.SpanContext
	enq time.Time
}

type shard struct {
	ops      chan op
	sessions map[string]*online.Session

	queueGauge *obs.Gauge
	sessGauge  *obs.Gauge

	// Durability state, owned by the shard goroutine (nil / zero when the
	// store runs without a DataDir). nextLSN is the next record's sequence
	// number; sinceCkpt counts durable records since the last checkpoint.
	dir       *wal.Dir
	nextLSN   uint64
	sinceCkpt int

	// LSN high-water marks readable without touching the shard queue (the
	// /v1/status path must answer while the queue is jammed): durableLSN
	// advances as records fsync, ckptLSN as checkpoints rotate.
	durableLSN atomic.Uint64
	ckptLSN    atomic.Uint64

	// feed broadcasts durable batches to replication subscribers; non-nil
	// exactly when dir is.
	feed *replica.Feed
}

// durable wraps a shard-op result whose acknowledgement must wait for the
// write-ahead log: the shard loop assigns each record an LSN, appends them
// in order, and delivers v to the op's done channel only when the LAST
// record is fsynced — one acknowledgement per op, even when the op logged a
// whole batch. Ops on a non-durable store never produce one.
type durable struct {
	recs []wal.Record
	v    any
	// preassigned marks records replicated from a leader: they arrive with
	// the leader's LSNs, which appendDurable must preserve instead of
	// assigning fresh ones.
	preassigned bool
}

// prepareDurable frames one WAL record body for a mutation that has NOT
// happened yet. Bodies are encoded (via internal/eventlog) before touching
// session state, so apply and log stay atomic and a checkpoint can never
// persist state the client was told failed. On a non-durable store it
// returns nil; result on a nil *durable passes the value straight through.
func (sh *shard) prepareDurable(typ wal.Type, body []byte) *durable {
	if sh.dir == nil {
		return nil
	}
	return &durable{recs: []wal.Record{{Type: typ, Body: body}}}
}

// result attaches the op's acknowledgement value: deferred through the WAL
// when d was prepared on a durable shard, immediate otherwise.
func (d *durable) result(v any) any {
	if d == nil {
		return v
	}
	d.v = v
	return d
}

// Store is the sharded session store. Construct with NewStore; Close drains
// it. All methods are safe for concurrent use.
type Store struct {
	cfg    Config
	shards []*shard

	// closing guards the draining flag against the shard channels being
	// closed mid-send: do holds it shared only across the admission check
	// and the enqueue, Close holds it exclusively while closing.
	closing  sync.RWMutex
	draining bool

	nextID atomic.Uint64
	live   atomic.Int64 // live sessions, for the MaxSessions admission check
	wg     sync.WaitGroup

	sessGauge       *obs.Gauge
	created         *obs.Counter
	forked          *obs.Counter
	deleted         *obs.Counter
	rejectFull      *obs.Counter
	rejectLimit     *obs.Counter
	rejectDraining  *obs.Counter
	expired         *obs.Counter
	eventsApplied   *obs.Counter
	rebuilds        *obs.Counter
	rebuildsAdopted *obs.Counter
	churnArrived    *obs.Counter
	churnDeparted   *obs.Counter
	churnChanUp     *obs.Counter
	churnChanDown   *obs.Counter
	churnDisplaced  *obs.Counter
	churnMoved      *obs.Counter

	walAppends       *obs.Counter
	walAppendBytes   *obs.Counter
	walFsyncs        *obs.Counter
	walFsyncSeconds  *obs.Histogram
	walCheckpoints   *obs.Counter
	walCkptSeconds   *obs.Histogram
	walErrors        *obs.Counter
	walRecovSessions *obs.Counter
	walRecovRecords  *obs.Counter
	walRecovTorn     *obs.Counter
	walRecovRepaired *obs.Counter

	// Recovery summarizes what NewStore restored from the WAL (zero value
	// for in-memory stores); specserved logs it on startup.
	Recovery RecoveryStats
}

// RecoveryStats reports one store recovery.
type RecoveryStats struct {
	// Sessions live after snapshot load + log replay.
	Sessions int
	// Records replayed from logs past the checkpoints.
	Records int
	// TornRecords dropped as torn tails (crash mid-write; never
	// acknowledged, so dropping them is correct, not lossy).
	TornRecords int
	// RepairedRecords dropped beyond corruption under Config.WALRepair.
	RepairedRecords int
}

// NewStore recovers any durable state under Config.DataDir, starts the
// shard event loops, and returns the store. Without a DataDir it cannot
// fail.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	st := &Store{
		cfg:             cfg,
		sessGauge:       reg.Gauge("server.sessions"),
		created:         reg.Counter("server.sessions.created"),
		forked:          reg.Counter("server.sessions.forked"),
		deleted:         reg.Counter("server.sessions.deleted"),
		rejectFull:      reg.Counter("server.rejected.queue_full"),
		rejectLimit:     reg.Counter("server.rejected.session_limit"),
		rejectDraining:  reg.Counter("server.rejected.draining"),
		expired:         reg.Counter("server.expired"),
		eventsApplied:   reg.Counter("server.events.applied"),
		rebuilds:        reg.Counter("server.rebuilds"),
		rebuildsAdopted: reg.Counter("server.rebuilds.adopted"),
		churnArrived:    reg.Counter("server.churn.arrived"),
		churnDeparted:   reg.Counter("server.churn.departed"),
		churnChanUp:     reg.Counter("server.churn.channels_up"),
		churnChanDown:   reg.Counter("server.churn.channels_down"),
		churnDisplaced:  reg.Counter("server.churn.displaced"),
		churnMoved:      reg.Counter("server.churn.moved"),

		walAppends:       reg.Counter("server.wal.appends"),
		walAppendBytes:   reg.Counter("server.wal.append_bytes"),
		walFsyncs:        reg.Counter("server.wal.fsyncs"),
		walFsyncSeconds:  reg.Histogram("server.wal.fsync_seconds", obs.TimeBuckets()),
		walCheckpoints:   reg.Counter("server.wal.checkpoints"),
		walCkptSeconds:   reg.Histogram("server.wal.checkpoint_seconds", obs.TimeBuckets()),
		walErrors:        reg.Counter("server.wal.errors"),
		walRecovSessions: reg.Counter("server.wal.recovered.sessions"),
		walRecovRecords:  reg.Counter("server.wal.recovered.records"),
		walRecovTorn:     reg.Counter("server.wal.recovered.torn_records"),
		walRecovRepaired: reg.Counter("server.wal.recovered.repaired_records"),
	}
	st.shards = make([]*shard, cfg.Shards)
	for i := range st.shards {
		st.shards[i] = &shard{
			ops:        make(chan op, cfg.QueueDepth),
			sessions:   make(map[string]*online.Session),
			queueGauge: reg.Gauge(fmt.Sprintf("server.shard.%d.queue_depth", i)),
			sessGauge:  reg.Gauge(fmt.Sprintf("server.shard.%d.sessions", i)),
		}
	}
	if cfg.DataDir != "" {
		if err := st.openWAL(); err != nil {
			return nil, err
		}
	}
	for _, sh := range st.shards {
		st.wg.Add(1)
		go st.runShard(sh)
	}
	return st, nil
}

// shardDir is shard i's directory under DataDir.
func (st *Store) shardDir(i int) string {
	return filepath.Join(st.cfg.DataDir, fmt.Sprintf("shard-%03d", i))
}

// sessionOptions builds the engine options a hosted session runs with: the
// store's Engine template plus the session's own bounded recorder (never
// shared across shards), the store's flight recorder, and the store's
// metrics registry so the engines' core.* / core.incremental.* counters
// (names in PROTOCOL.md) aggregate into the server's /debug/metrics dump.
// Used identically on Create and on WAL recovery, so a recovered session's
// engine is configured exactly like the original's.
func (st *Store) sessionOptions() core.Options {
	eng := st.cfg.Engine
	eng.Recorder = nil
	if st.cfg.SessionEvents > 0 {
		eng.Recorder = trace.NewBoundedRecorder(st.cfg.SessionEvents)
	}
	eng.Flight = st.cfg.Flight
	eng.Metrics = st.cfg.Metrics
	return eng
}

// runShard is a shard's event loop: it owns the shard's session map and
// executes admitted operations one at a time, in admission order, until the
// queue is closed and drained. On a durable store, mutations are appended
// to the shard's WAL here and acknowledged from the fsync batcher — the
// loop itself never waits on disk, so one shard's fsync latency never
// stalls its queue. On exit the shard takes a final checkpoint and closes
// its log, which blocks until every acknowledged record is on disk: that is
// the drain barrier making SIGTERM lossless end to end
// (accepted == applied == durable).
func (st *Store) runShard(sh *shard) {
	defer st.wg.Done()
	for o := range sh.ops {
		sh.queueGauge.Add(-1)
		if o.ctx != nil && o.ctx.Err() != nil {
			// The client already gave up on this deadline; skip the work so
			// an overloaded shard sheds abandoned requests instead of
			// burning its queue budget on them.
			st.expired.Inc()
			o.done <- opResult{err: o.ctx.Err()}
			continue
		}
		span := st.cfg.Flight.Start(o.sc, "server.shard_op")
		if span.Active() && !o.enq.IsZero() {
			span.Annotate("queue_wait_us=" + strconv.FormatInt(time.Since(o.enq).Microseconds(), 10))
		}
		sc := span.Context() // End() inerts the handle; capture before it
		v, err := o.fn(sc)
		if span.Active() && err != nil {
			span.Annotate("err=1")
		}
		span.End()
		if d, ok := v.(*durable); ok && err == nil {
			st.appendDurable(sh, d, o.done, sc)
			sh.sinceCkpt += len(d.recs)
			if st.cfg.CheckpointEvery > 0 && sh.sinceCkpt >= st.cfg.CheckpointEvery {
				st.checkpointShard(sh)
			}
			continue
		}
		o.done <- opResult{v: v, err: err}
	}
	if sh.dir != nil {
		// Final checkpoint: syncs the tail of the log (releasing the last
		// acknowledgements), snapshots the drained state, and truncates.
		st.checkpointShard(sh)
		if err := sh.dir.Sync(); err != nil {
			st.walErrors.Inc()
		}
		_ = sh.dir.Close()
	}
}

// appendDurable assigns each record its LSN, appends them to the shard's
// log in order, and arranges for the op's acknowledgement to fire when the
// final record is fsynced. One callback decides the op: the log is
// sticky-failed and fires callbacks in append order, so an earlier record
// cannot fail while a later one succeeds — the last record's durability
// implies the whole op's. Each wal.append span covers exactly its record's
// append-to-durable window under the op's server.shard_op span.
func (st *Store) appendDurable(sh *shard, d *durable, done chan opResult, parent trace.SpanContext) {
	if len(d.recs) == 0 {
		done <- opResult{v: d.v}
		return
	}
	v := d.v
	for i := range d.recs {
		if d.preassigned {
			sh.nextLSN = d.recs[i].LSN
		} else {
			sh.nextLSN++
			d.recs[i].LSN = sh.nextLSN
		}
		rec := d.recs[i]
		wspan := st.cfg.Flight.Start(parent, "wal.append")
		if wspan.Active() {
			wspan.Annotate(fmt.Sprintf("lsn=%d type=%s bytes=%d", rec.LSN, rec.Type, len(rec.Body)))
		}
		st.walAppends.Inc()
		st.walAppendBytes.Add(int64(wal.EncodedSize(len(rec.Body))))
		final := i == len(d.recs)-1
		sh.dir.Append(rec, func(err error) {
			if err != nil {
				st.walErrors.Inc()
				if wspan.Active() {
					wspan.Annotate("err=1")
				}
				wspan.End()
				if final {
					done <- opResult{err: fmt.Errorf("server: wal append: %w", err)}
				}
				return
			}
			wspan.End()
			// Callbacks fire in append order, so this store is monotone.
			sh.durableLSN.Store(rec.LSN)
			if final {
				done <- opResult{v: v}
			}
		})
	}
}

// checkpointShard snapshots the shard's full state and rotates its log.
// Runs on the shard goroutine, so the session map is stable; a failure
// leaves the shard appending to its current log and is retried after the
// next CheckpointEvery records.
func (st *Store) checkpointShard(sh *shard) error {
	span := st.cfg.Flight.Start(trace.SpanContext{}, "wal.checkpoint")
	defer span.End()
	start := time.Now()
	body := marshalCheckpoint(st.nextID.Load(), sh.sessions)
	err := sh.dir.Checkpoint(sh.nextLSN, body)
	sh.sinceCkpt = 0
	st.walCkptSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		st.walErrors.Inc()
		if span.Active() {
			span.Annotate("err=1")
		}
		return err
	}
	// Checkpoint synced the log first, so everything through nextLSN is
	// durable and now also covered by the snapshot.
	sh.durableLSN.Store(sh.nextLSN)
	sh.ckptLSN.Store(sh.nextLSN)
	st.walCheckpoints.Inc()
	if span.Active() {
		span.Annotate(fmt.Sprintf("gen=%d lsn=%d sessions=%d bytes=%d",
			sh.dir.Gen(), sh.nextLSN, len(sh.sessions), len(body)))
	}
	return nil
}

// shardOf pins a session id to a shard for its whole lifetime.
func (st *Store) shardOf(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return st.shards[h.Sum32()%uint32(len(st.shards))]
}

// do admits one operation onto a shard queue and waits for its result. A
// full queue or a draining store rejects immediately; a context that
// expires while the operation is queued abandons it (the shard discards it
// unapplied when it surfaces).
func (st *Store) do(ctx context.Context, sh *shard, fn func(sc trace.SpanContext) (any, error)) (any, error) {
	o := op{ctx: ctx, fn: fn, done: make(chan opResult, 1)}
	if st.cfg.Flight.Enabled() {
		if ctx != nil {
			o.sc = trace.FromContext(ctx)
		}
		o.enq = time.Now()
	}
	st.closing.RLock()
	if st.draining {
		st.closing.RUnlock()
		st.rejectDraining.Inc()
		return nil, ErrDraining
	}
	select {
	case sh.ops <- o:
		sh.queueGauge.Add(1)
		st.closing.RUnlock()
	default:
		st.closing.RUnlock()
		st.rejectFull.Inc()
		return nil, ErrQueueFull
	}
	if ctx == nil {
		r := <-o.done
		return r.v, r.err
	}
	select {
	case r := <-o.done:
		return r.v, r.err
	case <-ctx.Done():
		// The op stays queued; the shard loop sees the expired context and
		// skips it without applying. If the shard was already mid-apply the
		// result lands in the buffered done channel and is dropped — in
		// that one race the server-side applied counters can exceed the
		// client's accepted count, never the other way around.
		return nil, ctx.Err()
	}
}

// Create places a new session for the market on a shard and returns its id
// and initial snapshot. The market must already be validated.
func (st *Store) Create(ctx context.Context, m *market.Market) (string, online.Snapshot, error) {
	if st.live.Load() >= int64(st.cfg.MaxSessions) {
		st.rejectLimit.Inc()
		return "", online.Snapshot{}, ErrSessionLimit
	}
	id := fmt.Sprintf("m%08x", st.nextID.Add(1))
	sh := st.shardOf(id)
	v, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
		var d *durable
		if sh.dir != nil {
			d = sh.prepareDurable(wal.TypeCreate, eventlog.Create{ID: id, Spec: m.Spec()}.Encode())
		}
		// Each session owns its engine options; see sessionOptions.
		s, err := online.NewSession(m, st.sessionOptions())
		if err != nil {
			return nil, err
		}
		sh.sessions[id] = s
		sh.sessGauge.Add(1)
		st.sessGauge.Add(1)
		st.created.Inc()
		st.live.Add(1)
		return d.result(s.Snapshot()), nil
	})
	if err != nil {
		return "", online.Snapshot{}, err
	}
	return id, v.(online.Snapshot), nil
}

// StepResult is one applied event's acknowledgement: its stats plus, on a
// durable store, the LSN its WAL record was assigned (0 in-memory).
type StepResult struct {
	Stats online.StepStats
	LSN   uint64
}

// Step applies one churn event to a session. The error is ErrNotFound for
// unknown ids; any other error is the event failing validation against the
// session's market.
func (st *Store) Step(ctx context.Context, id string, ev online.Event) (online.StepStats, error) {
	res, err := st.StepBatch(ctx, id, []online.Event{ev})
	if err != nil {
		return online.StepStats{}, err
	}
	return res[0].Stats, nil
}

// StepBatch applies a batch of churn events to a session as ONE shard
// operation: every event is validated against the session's market before
// anything is applied (validation is static in the market's dimensions), so
// one bad event rejects the whole batch with the session untouched — the
// single-event contract, batch-wide. Each applied event gets its own WAL
// record and LSN; the batch is acknowledged once, when the last record is
// durable.
func (st *Store) StepBatch(ctx context.Context, id string, events []online.Event) ([]StepResult, error) {
	sh := st.shardOf(id)
	v, err := st.do(ctx, sh, func(sc trace.SpanContext) (any, error) {
		s, ok := sh.sessions[id]
		if !ok {
			return nil, ErrNotFound
		}
		m := s.Market()
		for k, ev := range events {
			err := ev.Validate(m.M(), m.N())
			if err == nil && len(ev.Move) > 0 && !m.HasGeometry() {
				// Pre-checked here, not left to StepTraced: a mid-batch
				// geometry failure would break the all-or-nothing contract
				// after earlier events had already been applied and logged.
				err = fmt.Errorf("move events need a market with geometry (positions and ranges)")
			}
			if err != nil {
				if len(events) > 1 {
					return nil, fmt.Errorf("event %d: %w", k, err)
				}
				return nil, err
			}
		}
		results := make([]StepResult, 0, len(events))
		var recs []wal.Record
		// The LSNs these records will receive are exact, not speculative:
		// the shard goroutine runs appendDurable immediately after this
		// function returns, with no other op in between, assigning
		// base+1 … base+len(recs) in order.
		base := sh.nextLSN
		for k, ev := range events {
			var body []byte
			if sh.dir != nil {
				body = eventlog.Step{ID: id, Event: ev}.Encode()
			}
			stats, err := s.StepTraced(ev, sc)
			if err != nil {
				// Unreachable for pre-validated events (StepTraced fails only
				// on validation); defensively the batch fails un-acked, and
				// nothing from it reaches the WAL.
				return nil, fmt.Errorf("event %d: %w", k, err)
			}
			st.eventsApplied.Inc()
			st.churnArrived.Add(int64(stats.Arrived))
			st.churnDeparted.Add(int64(stats.Departed))
			st.churnChanUp.Add(int64(stats.ChannelsUp))
			st.churnChanDown.Add(int64(stats.ChannelsDown))
			st.churnDisplaced.Add(int64(stats.Displaced))
			st.churnMoved.Add(int64(stats.Moved))
			res := StepResult{Stats: stats}
			if sh.dir != nil {
				recs = append(recs, wal.Record{Type: wal.TypeStep, Body: body})
				res.LSN = base + uint64(len(recs))
			}
			results = append(results, res)
		}
		if sh.dir == nil {
			return results, nil
		}
		return &durable{recs: recs, v: results}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]StepResult), nil
}

// Rebuild re-runs the two-stage algorithm over a session's active
// sub-market; see online.Session.Rebuild for the adopt semantics. Adopted
// reports whether the session state changed.
func (st *Store) Rebuild(ctx context.Context, id string, adopt bool) (welfare float64, adopted bool, err error) {
	sh := st.shardOf(id)
	v, err := st.do(ctx, sh, func(sc trace.SpanContext) (any, error) {
		s, ok := sh.sessions[id]
		if !ok {
			return nil, ErrNotFound
		}
		var d *durable
		if adopt {
			// Replaying the record re-runs the deterministic engine, which
			// reproduces the adoption decision — the record carries no
			// result. A non-adopting rebuild is a pure read; nothing to log.
			d = sh.prepareDurable(wal.TypeRebuild, eventlog.Ref{ID: id}.Encode())
		}
		before := s.Welfare()
		w, err := s.RebuildTraced(adopt, sc)
		if err != nil {
			return nil, err
		}
		st.rebuilds.Inc()
		changed := adopt && w > before
		if changed {
			st.rebuildsAdopted.Inc()
		}
		if !adopt {
			return [2]any{w, changed}, nil
		}
		return d.result([2]any{w, changed}), nil
	})
	if err != nil {
		return 0, false, err
	}
	r := v.([2]any)
	return r[0].(float64), r[1].(bool), nil
}

// Get snapshots a session's current state.
func (st *Store) Get(ctx context.Context, id string) (online.Snapshot, error) {
	sh := st.shardOf(id)
	v, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
		s, ok := sh.sessions[id]
		if !ok {
			return nil, ErrNotFound
		}
		return s.Snapshot(), nil
	})
	if err != nil {
		return online.Snapshot{}, err
	}
	return v.(online.Snapshot), nil
}

// Delete removes a session.
func (st *Store) Delete(ctx context.Context, id string) error {
	sh := st.shardOf(id)
	_, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
		if _, ok := sh.sessions[id]; !ok {
			return nil, ErrNotFound
		}
		d := sh.prepareDurable(wal.TypeDelete, eventlog.Ref{ID: id}.Encode())
		delete(sh.sessions, id)
		sh.sessGauge.Add(-1)
		st.sessGauge.Add(-1)
		st.deleted.Inc()
		st.live.Add(-1)
		return d.result(nil), nil
	})
	return err
}

// List returns the ids of all live sessions, sorted.
func (st *Store) List(ctx context.Context) ([]string, error) {
	var ids []string
	for _, sh := range st.shards {
		v, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
			out := make([]string, 0, len(sh.sessions))
			for id := range sh.sessions {
				out = append(out, id)
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, v.([]string)...)
	}
	sort.Strings(ids)
	return ids, nil
}

// Len returns the number of live sessions.
func (st *Store) Len() int { return int(st.live.Load()) }

// Close drains the store: new operations are refused with ErrDraining,
// every operation already admitted runs to completion, and the shard
// goroutines exit. On a durable store each shard additionally takes a final
// checkpoint and blocks on the last WAL fsync before exiting, so when Close
// returns every acknowledged mutation is on disk — the SIGTERM guarantee is
// accepted == applied == durable, not just accepted == applied. Callers
// fronting the store with an HTTP server should stop the listener first
// (HTTPServer.Shutdown) so no handler is mid-admit. Close is idempotent.
func (st *Store) Close() {
	st.closing.Lock()
	if !st.draining {
		st.draining = true
		for _, sh := range st.shards {
			close(sh.ops)
		}
	}
	st.closing.Unlock()
	st.wg.Wait()
}
