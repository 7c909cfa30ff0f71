package server

// This file is the serving side of internal/replica: the store's
// replicated-apply path (a follower applying leader records through the
// same code recovery uses), the leader's per-shard stream handler, the
// /v1/status and /v1/replica/status read APIs, the follower write gate, and
// POST /v1/replica/promote. The wire format needs no glue — a stream is
// framed exactly like a log file, so the handler ships file bytes and the
// feed ships fsynced batches verbatim.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/online"
	"specmatch/internal/replica"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// ErrNotLeader reports a write on a follower (HTTP 503 + X-Leader hint).
var ErrNotLeader = errors.New("server: node is a follower; writes go to the leader")

// Durable reports whether the store runs with a WAL. Replication needs one
// on both ends: the leader streams its log, the follower appends to its
// own.
func (st *Store) Durable() bool { return st.cfg.DataDir != "" }

// NumShards returns the store's shard count.
func (st *Store) NumShards() int { return len(st.shards) }

// ShardStatuses reports every shard's durable and checkpoint LSN
// high-water. Lock-free — it must answer even when shard queues are full.
func (st *Store) ShardStatuses() []replica.ShardLSN {
	out := make([]replica.ShardLSN, len(st.shards))
	for i, sh := range st.shards {
		out[i] = replica.ShardLSN{
			Shard:         i,
			DurableLSN:    sh.durableLSN.Load(),
			CheckpointLSN: sh.ckptLSN.Load(),
		}
	}
	return out
}

// raiseNextID lifts the store's session-id counter to at least n, so ids a
// follower mints after promotion never collide with ids the leader issued.
func (st *Store) raiseNextID(n uint64) {
	for {
		cur := st.nextID.Load()
		if cur >= n || st.nextID.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ApplyReplicated applies one contiguous batch of leader records to a
// shard: appends them to this store's own WAL with the leader's LSNs
// preserved, applies them through the same replay path recovery uses, and
// returns the shard's new applied LSN only after the batch is fsynced — the
// follower acks (and resumes from) nothing it could lose. Records at or
// below the current LSN are skipped (stream resume overlap); a gap is an
// error, because applying past one would silently diverge. A TypeSnapshot
// record (checkpoint-ship, when the follower was behind the leader's
// truncation horizon) replaces the shard's state wholesale and checkpoints
// it synchronously.
func (st *Store) ApplyReplicated(ctx context.Context, shardIdx int, recs []wal.Record) (uint64, error) {
	if shardIdx < 0 || shardIdx >= len(st.shards) {
		return 0, fmt.Errorf("server: no shard %d", shardIdx)
	}
	sh := st.shards[shardIdx]
	if sh.dir == nil {
		return 0, ErrNotDurable
	}
	v, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
		var toAppend []wal.Record
		maxID := st.nextID.Load()
		liveBefore := len(sh.sessions)
		for _, r := range recs {
			if r.Type == wal.TypeSnapshot {
				if r.LSN <= sh.nextLSN {
					continue // already past the shipped point
				}
				if err := st.installSnapshot(sh, r); err != nil {
					return nil, err
				}
				continue
			}
			if r.LSN <= sh.nextLSN {
				continue // resume overlap: already applied and durable
			}
			if r.LSN != sh.nextLSN+1 {
				return nil, fmt.Errorf("server: replication gap on shard %d: have lsn %d, got %d", shardIdx, sh.nextLSN, r.LSN)
			}
			if err := st.applyRecord(sh.sessions, "", r, &maxID); err != nil {
				return nil, fmt.Errorf("server: replicated lsn %d: %w", r.LSN, err)
			}
			if r.Type == wal.TypeStep {
				st.eventsApplied.Inc()
			}
			sh.nextLSN = r.LSN
			toAppend = append(toAppend, r)
		}
		st.raiseNextID(maxID)
		// Follower gauges track the replicated session population.
		delta := int64(len(sh.sessions) - liveBefore)
		if delta != 0 {
			sh.sessGauge.Add(delta)
			st.sessGauge.Add(delta)
			st.live.Add(delta)
		}
		if len(toAppend) == 0 {
			return sh.nextLSN, nil
		}
		return &durable{recs: toAppend, v: sh.nextLSN, preassigned: true}, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(uint64), nil
}

// installSnapshot replaces a shard's state with a leader checkpoint shipped
// mid-stream and persists it as this store's own checkpoint — the exact
// body, so the follower's files stay byte-comparable to the leader's.
func (st *Store) installSnapshot(sh *shard, r wal.Record) error {
	cp, err := eventlog.DecodeCheckpoint(r.Body)
	if err != nil {
		return fmt.Errorf("server: decoding shipped checkpoint: %w", err)
	}
	sessions := make(map[string]*online.Session, len(cp.Sessions))
	for _, sc := range cp.Sessions {
		s, err := st.restore(sc.Spec, sc.State)
		if err != nil {
			return fmt.Errorf("server: shipped checkpoint session %s: %w", sc.ID, err)
		}
		sessions[sc.ID] = s
	}
	sh.sessions = sessions
	sh.nextLSN = r.LSN
	st.raiseNextID(cp.NextID)
	if err := sh.dir.Checkpoint(r.LSN, r.Body); err != nil {
		return fmt.Errorf("server: persisting shipped checkpoint: %w", err)
	}
	sh.sinceCkpt = 0
	sh.durableLSN.Store(r.LSN)
	sh.ckptLSN.Store(r.LSN)
	st.walCheckpoints.Inc()
	return nil
}

// Seal checkpoints every shard at its current tail — the promote step that
// seals a follower's logs at the last contiguous LSN before it starts
// taking writes. Returns the sealed per-shard positions.
func (st *Store) Seal(ctx context.Context) ([]replica.ShardLSN, error) {
	for i, sh := range st.shards {
		if sh.dir == nil {
			return nil, ErrNotDurable
		}
		_, err := st.do(ctx, sh, func(trace.SpanContext) (any, error) {
			return nil, st.checkpointShard(sh)
		})
		if err != nil {
			return nil, fmt.Errorf("server: sealing shard %d: %w", i, err)
		}
	}
	return st.ShardStatuses(), nil
}

// replState is the server's replication role. Nodes are leaders unless
// BecomeFollower was called; promotion flips a follower back.
type replState struct {
	mu        sync.Mutex
	follower  bool
	leaderURL string
	status    func() replica.FollowerStatus
	stop      func() // stops the follower's tailers; idempotent
	promoting sync.Mutex
}

// BecomeFollower marks the server a read-only follower of leaderURL: writes
// return 503 with an X-Leader hint until promotion. status feeds
// /v1/replica/status; stop is invoked by promote before sealing (it must
// block until no more replicated applies can happen).
func (s *Server) BecomeFollower(leaderURL string, status func() replica.FollowerStatus, stop func()) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	s.repl.follower = true
	s.repl.leaderURL = leaderURL
	s.repl.status = status
	s.repl.stop = stop
}

// followerInfo returns (leaderURL, true) when the node is a follower.
func (s *Server) followerInfo() (string, bool) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.leaderURL, s.repl.follower
}

// Role returns the node's replication role name.
func (s *Server) Role() string {
	if _, f := s.followerInfo(); f {
		return replica.RoleFollower
	}
	return replica.RoleLeader
}

// gated wraps a write handler with the follower gate: a follower refuses
// the write with 503 and points the client at the leader, because applying
// it locally would fork the replicated history.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	rejected := s.reg.Counter("replica.rejected_writes")
	return func(w http.ResponseWriter, r *http.Request) {
		if leader, isFollower := s.followerInfo(); isFollower {
			rejected.Inc()
			w.Header().Set("X-Leader", leader)
			s.writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: fmt.Sprintf("%s at %s", ErrNotLeader.Error(), leader)})
			return
		}
		h(w, r)
	}
}

// handleStatus serves GET /v1/status: role plus per-shard LSN high-waters.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	leader, isFollower := s.followerInfo()
	st := replica.NodeStatus{
		Role:     s.Role(),
		Durable:  s.store.Durable(),
		Sessions: s.store.Len(),
	}
	if isFollower {
		st.Leader = leader
	}
	if st.Durable {
		st.Shards = s.store.ShardStatuses()
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleReplicaStatus serves GET /v1/replica/status: follower progress, or
// the leader's stream fan-out.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, _ *http.Request) {
	out := replica.ReplicaStatus{Role: s.Role()}
	s.repl.mu.Lock()
	status := s.repl.status
	s.repl.mu.Unlock()
	if out.Role == replica.RoleFollower && status != nil {
		fs := status()
		out.Follow = &fs
	} else if s.store.Durable() {
		for i, sh := range s.store.shards {
			out.Streams = append(out.Streams, replica.StreamStatus{
				Shard:        i,
				Subscribers:  sh.feed.Subscribers(),
				PublishedLSN: sh.feed.Last(),
			})
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}

// PromoteResponse is the reply to POST /v1/replica/promote.
type PromoteResponse struct {
	Role         string             `json:"role"`
	WasFollowing string             `json:"was_following"`
	Shards       []replica.ShardLSN `json:"shards"`
}

// handlePromote serves POST /v1/replica/promote: stop following, seal every
// shard's log at its last contiguous LSN, and start accepting writes. 409
// on a node that is not a follower. On a seal failure the node STAYS a
// follower (with tailers stopped) so the operator can retry; nothing is
// half-promoted.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.repl.promoting.Lock()
	defer s.repl.promoting.Unlock()
	leader, isFollower := s.followerInfo()
	if !isFollower {
		s.writeJSON(w, http.StatusConflict, ErrorResponse{Error: "server: not a follower; nothing to promote"})
		return
	}
	s.repl.mu.Lock()
	stop := s.repl.stop
	s.repl.mu.Unlock()
	if stop != nil {
		stop() // blocks until no replicated apply is in flight
	}
	sealed, err := s.store.Seal(r.Context())
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.repl.mu.Lock()
	s.repl.follower = false
	s.repl.status = nil
	s.repl.stop = nil
	s.repl.mu.Unlock()
	s.writeJSON(w, http.StatusOK, PromoteResponse{Role: replica.RoleLeader, WasFollowing: leader, Shards: sealed})
}

// streamConn adapts the stream handler's ResponseWriter for feed publishes:
// every write gets a fresh deadline, so a stalled subscriber is dropped by
// the feed instead of blocking the leader's fsync path.
type streamConn struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

// publishDeadline bounds one replication batch write to a subscriber.
const publishDeadline = 2 * time.Second

func (c *streamConn) WriteBatch(b []byte) error {
	_ = c.rc.SetWriteDeadline(time.Now().Add(publishDeadline))
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.rc.Flush()
}

// handleStream serves GET /v1/replica/shards/{shard}/stream?from_lsn=N: the
// shard's framed records with LSN > N, as an unbounded stream — first
// whatever is already in the files (prefixed, when N is below the
// truncation horizon, by one TypeSnapshot record shipped from the newest
// checkpoint), then live batches straight from the WAL's post-fsync hook.
// Every record it ships is durable on the leader: the file catch-up stops
// at the feed's published LSN, and the feed publishes only after fsync.
// The bytes after the leading magic are frame-identical to the on-disk log.
//
// Registered outside route(): a replication stream must not carry the
// per-request deadline.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter("server.requests.replica_stream").Inc()
	if !s.store.Durable() {
		s.writeError(w, fmt.Errorf("%w; replication streams the WAL", ErrNotDurable))
		return
	}
	idx, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || idx < 0 || idx >= s.store.NumShards() {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("server: no shard %q", r.PathValue("shard"))})
		return
	}
	var from uint64
	if q := r.URL.Query().Get("from_lsn"); q != "" {
		if from, err = strconv.ParseUint(q, 10, 64); err != nil {
			s.writeError(w, badRequest(fmt.Errorf("from_lsn: %w", err)))
			return
		}
	}
	if _, ok := w.(http.Flusher); !ok {
		s.writeError(w, fmt.Errorf("server: response writer cannot stream"))
		return
	}
	sh := s.store.shards[idx]
	dir := s.store.shardDir(idx)

	// Resolve the truncation horizon before committing to a response: a
	// follower below the newest checkpoint's LSN cannot be served from log
	// frames alone (older generations are deleted on rotation), so it gets
	// the checkpoint itself as the stream's first record.
	var ship *wal.Record
	cursor := from
	if body, snapLSN, ok, err := wal.NewestSnapshot(dir); err != nil {
		s.writeError(w, err)
		return
	} else if ok && from < snapLSN {
		ship = &wal.Record{Type: wal.TypeSnapshot, LSN: snapLSN, Body: body}
		cursor = snapLSN
	}

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	write := func(b []byte) error {
		_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
		_, err := w.Write(b)
		return err
	}
	if err := write(wal.Magic[:]); err != nil {
		return
	}
	if ship != nil {
		if err := write(wal.AppendRecord(nil, *ship)); err != nil {
			return
		}
	}

	// Catch up from the files, then go live on the feed. The files are read
	// only up to the feed's published LSN: the log writes a batch before it
	// fsyncs it, and a record shipped from that window could be lost in a
	// crash and its LSN reused. Attach refuses while the feed's published
	// high-water is past our cursor, which is exactly when the files hold
	// published records we have not read yet — so the loop always
	// progresses, and once the tail reaches the published tail Attach must
	// succeed; held-back records then arrive through the feed.
	t := wal.OpenTail(dir, cursor)
	defer t.Close()
	sub := replica.NewSubscriber(&streamConn{w: w, rc: rc})
	for {
		recs, err := t.Next(sh.feed.Last())
		if err != nil {
			return // mid-log damage or I/O error: drop the stream
		}
		if len(recs) > 0 {
			var buf []byte
			for _, rec := range recs {
				buf = wal.AppendRecord(buf, rec)
			}
			if err := write(buf); err != nil {
				return
			}
			continue
		}
		// Flush before Attach: after Attach the feed's flush goroutine owns
		// the writer, so this goroutine must not touch it again.
		if err := rc.Flush(); err != nil {
			return
		}
		if sh.feed.Attach(sub, t.Cursor()) {
			break
		}
	}
	defer sh.feed.Detach(sub) // serializes against an in-flight publish
	select {
	case <-r.Context().Done(): // client went away
	case <-sub.Done(): // dropped by the feed (write error/stall)
	case <-s.streamsDone: // server draining
	}
}

// StopStreams ends every live replication stream, so a graceful shutdown's
// listener drain is not held open by followers. Idempotent.
func (s *Server) StopStreams() {
	s.stopStreams.Do(func() { close(s.streamsDone) })
}
