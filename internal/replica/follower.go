package replica

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// ApplyFunc hands a contiguous batch of leader records for one shard to the
// store's replicated-apply path. It must append them to the follower's own
// WAL (preserving the leader's LSNs) and return the new applied LSN only
// after they are durable — the follower's resume cursor comes from here, so
// returning early would re-request records it already has, and returning
// late would skip records it lost.
type ApplyFunc func(ctx context.Context, shard int, recs []wal.Record) (uint64, error)

// Config wires a Follower.
type Config struct {
	// Leader is the upstream base URL, e.g. "http://127.0.0.1:7937".
	Leader string
	// Shards is the shard count (must equal the leader's).
	Shards int
	// From holds the per-shard resume LSNs — the follower store's durable
	// high-water after its own recovery.
	From []uint64
	// Apply is the store's replicated-apply entry point.
	Apply ApplyFunc
	// Metrics receives the replica.* gauges and counters (nil ok).
	Metrics *obs.Registry
	// Flight receives replica.lag spans (nil ok).
	Flight *trace.Flight
	// Logf, when set, receives one-line progress/warning logs.
	Logf func(format string, args ...any)
	// PollInterval is the leader-status poll cadence (0 = 250ms).
	PollInterval time.Duration
}

// Follower tails every shard stream of a leader and applies the records
// locally. Start it with Start; Stop is idempotent and used by promotion.
type Follower struct {
	cfg    Config
	client *http.Client // streams and status polls; no global timeout, streams are long-lived
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	applied   []atomic.Uint64 // per-shard applied-and-durable LSN
	leaderLSN []atomic.Uint64 // per-shard leader durable LSN (from polls)
	connected []atomic.Bool
	caughtNS  []atomic.Int64 // unix nanos when the shard was last caught up

	reconnects  *obs.Counter
	recsApplied *obs.Counter
	applyErrors *obs.Counter
	shipApplied *obs.Counter
	lagLSNGauge *obs.Gauge
	lagMSGauge  *obs.Gauge
	shardLagLSN []*obs.Gauge
	shardLagMS  []*obs.Gauge
}

// Start launches the per-shard stream tailers and the leader-status poller.
func Start(cfg Config) (*Follower, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("replica: follower needs a positive shard count")
	}
	if len(cfg.From) != cfg.Shards {
		return nil, fmt.Errorf("replica: %d resume LSNs for %d shards", len(cfg.From), cfg.Shards)
	}
	if cfg.Apply == nil {
		return nil, fmt.Errorf("replica: follower needs an Apply func")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg:       cfg,
		client:    &http.Client{},
		ctx:       ctx,
		cancel:    cancel,
		applied:   make([]atomic.Uint64, cfg.Shards),
		leaderLSN: make([]atomic.Uint64, cfg.Shards),
		connected: make([]atomic.Bool, cfg.Shards),
		caughtNS:  make([]atomic.Int64, cfg.Shards),

		reconnects:  cfg.Metrics.Counter("replica.reconnects"),
		recsApplied: cfg.Metrics.Counter("replica.records_applied"),
		applyErrors: cfg.Metrics.Counter("replica.apply_errors"),
		shipApplied: cfg.Metrics.Counter("replica.checkpoint_ships"),
		lagLSNGauge: cfg.Metrics.Gauge("replica.lag_lsn"),
		lagMSGauge:  cfg.Metrics.Gauge("replica.lag_ms"),
	}
	now := time.Now().UnixNano()
	for i := 0; i < cfg.Shards; i++ {
		f.applied[i].Store(cfg.From[i])
		f.caughtNS[i].Store(now)
		f.shardLagLSN = append(f.shardLagLSN, cfg.Metrics.Gauge(fmt.Sprintf("replica.shard.%d.lag_lsn", i)))
		f.shardLagMS = append(f.shardLagMS, cfg.Metrics.Gauge(fmt.Sprintf("replica.shard.%d.lag_ms", i)))
	}
	for i := 0; i < cfg.Shards; i++ {
		f.wg.Add(1)
		go f.tailShard(i)
	}
	f.wg.Add(1)
	go f.pollLeader()
	return f, nil
}

// Stop cancels every tailer and waits for them to exit. After Stop returns
// no further Apply calls happen — the promotion precondition. Idempotent.
func (f *Follower) Stop() {
	f.cancel()
	f.wg.Wait()
}

// AppliedLSN returns one shard's applied-and-durable LSN.
func (f *Follower) AppliedLSN(shard int) uint64 { return f.applied[shard].Load() }

// Status reports per-shard replication progress.
func (f *Follower) Status() FollowerStatus {
	st := FollowerStatus{Leader: f.cfg.Leader}
	now := time.Now()
	for i := range f.applied {
		st.Shards = append(st.Shards, f.shardFollow(i, now))
	}
	return st
}

func (f *Follower) shardFollow(i int, now time.Time) ShardFollow {
	applied := f.applied[i].Load()
	leader := f.leaderLSN[i].Load()
	sf := ShardFollow{
		Shard:      i,
		AppliedLSN: applied,
		LeaderLSN:  leader,
		Connected:  f.connected[i].Load(),
	}
	if leader > applied {
		sf.LagLSN = leader - applied
		sf.LagMS = now.Sub(time.Unix(0, f.caughtNS[i].Load())).Milliseconds()
		if sf.LagMS < 0 {
			sf.LagMS = 0
		}
	}
	return sf
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// tailShard is one shard's stream loop: connect at the applied LSN, apply
// until the stream breaks, reconnect with backoff. It exits only on Stop.
func (f *Follower) tailShard(shard int) {
	defer f.wg.Done()
	backoff := 50 * time.Millisecond
	for f.ctx.Err() == nil {
		err := f.streamOnce(shard)
		f.connected[shard].Store(false)
		if f.ctx.Err() != nil {
			return
		}
		if err != nil {
			f.logf("replica: shard %d stream: %v (reconnecting in %v)", shard, err, backoff)
		}
		f.reconnects.Inc()
		select {
		case <-time.After(backoff):
		case <-f.ctx.Done():
			return
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// streamOnce runs one connection's read-decode-apply loop.
func (f *Follower) streamOnce(shard int) error {
	from := f.applied[shard].Load()
	url := fmt.Sprintf("%s%s?from_lsn=%d", f.cfg.Leader, StreamPath(shard), from)
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("leader returned %d: %s", resp.StatusCode, body)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if err := wal.ReadMagic(br); err != nil {
		return fmt.Errorf("stream magic: %w", err)
	}
	f.connected[shard].Store(true)
	f.logf("replica: shard %d streaming from leader at lsn %d", shard, from)
	for {
		// Block for one record, then drain whatever further complete frames
		// are already buffered so catch-up applies in batches, not one
		// record (and one fsync) at a time.
		rec, err := wal.ReadRecord(br)
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("leader closed the stream")
			}
			return err
		}
		batch := []wal.Record{rec}
		for len(batch) < 1024 {
			more, ok, err := bufferedRecord(br)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			batch = append(batch, more)
		}
		newLSN, err := f.cfg.Apply(f.ctx, shard, batch)
		if err != nil {
			f.applyErrors.Inc()
			return fmt.Errorf("apply %d records at lsn %d: %w", len(batch), batch[0].LSN, err)
		}
		f.applied[shard].Store(newLSN)
		f.recsApplied.Add(int64(len(batch)))
		for _, r := range batch {
			if r.Type == wal.TypeSnapshot {
				f.shipApplied.Inc()
			}
		}
		if newLSN >= f.leaderLSN[shard].Load() {
			f.caughtNS[shard].Store(time.Now().UnixNano())
		}
		f.updateLagGauges()
	}
}

// bufferedRecord decodes one record if (and only if) a complete frame is
// already sitting in the bufio buffer — it never blocks on the socket. A
// frame that is buffered but fails to decode is an error, not ok=false: its
// bytes are consumed by then, so reading on would skip the record.
func bufferedRecord(br *bufio.Reader) (wal.Record, bool, error) {
	if br.Buffered() < 8 {
		return wal.Record{}, false, nil
	}
	hdr, err := br.Peek(8)
	if err != nil {
		return wal.Record{}, false, nil
	}
	plen := int(binary.LittleEndian.Uint32(hdr[0:4]))
	if br.Buffered() < 8+plen {
		return wal.Record{}, false, nil
	}
	rec, err := wal.ReadRecord(br)
	if err != nil {
		return wal.Record{}, false, err
	}
	return rec, true, nil
}

// pollLeader keeps the leader-side LSN high-waters (and hence the lag
// gauges and replica.lag spans) fresh by polling /v1/status.
func (f *Follower) pollLeader() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
		}
		st, err := FetchStatus(f.ctx, f.client, f.cfg.Leader)
		if err != nil {
			continue // lag_ms keeps growing; the tailers report the outage
		}
		now := time.Now()
		for _, sh := range st.Shards {
			if sh.Shard < 0 || sh.Shard >= len(f.leaderLSN) {
				continue
			}
			f.leaderLSN[sh.Shard].Store(sh.DurableLSN)
			if f.applied[sh.Shard].Load() >= sh.DurableLSN {
				f.caughtNS[sh.Shard].Store(now.UnixNano())
			}
		}
		f.updateLagGauges()
		if f.cfg.Flight.Enabled() {
			for i := range f.applied {
				sf := f.shardFollow(i, now)
				h := f.cfg.Flight.Start(trace.SpanContext{}, "replica.lag")
				h.Annotate(fmt.Sprintf("shard=%d lag_lsn=%d lag_ms=%d applied_lsn=%d leader_lsn=%d",
					sf.Shard, sf.LagLSN, sf.LagMS, sf.AppliedLSN, sf.LeaderLSN))
				h.End()
			}
		}
	}
}

// updateLagGauges refreshes replica.lag_lsn / replica.lag_ms (max across
// shards) and the per-shard variants.
func (f *Follower) updateLagGauges() {
	now := time.Now()
	var maxLSN uint64
	var maxMS int64
	for i := range f.applied {
		sf := f.shardFollow(i, now)
		f.shardLagLSN[i].Set(int64(sf.LagLSN))
		f.shardLagMS[i].Set(sf.LagMS)
		if sf.LagLSN > maxLSN {
			maxLSN = sf.LagLSN
		}
		if sf.LagMS > maxMS {
			maxMS = sf.LagMS
		}
	}
	f.lagLSNGauge.Set(int64(maxLSN))
	f.lagMSGauge.Set(maxMS)
}

// FetchStatus GETs and decodes a node's /v1/status document. The request is
// bounded even on a deadline-free client/context.
func FetchStatus(ctx context.Context, client *http.Client, base string) (*NodeStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/status", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d from %s/v1/status", resp.StatusCode, base)
	}
	var st NodeStatus
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
