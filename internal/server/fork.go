package server

// Point-in-time session forks. A fork replays a session's durable prefix —
// newest checkpoint plus id-filtered log records up to a caller-chosen LSN,
// through the same applyRecord and restore that recovery uses — into a
// brand-new live session on its own shard. Phase one runs on the
// source shard and only reads (sync the log, scan the directory, replay in
// memory), so a crash mid-fork leaves no trace; phase two inserts the child
// under a fresh id and logs one self-contained wal.TypeFork record carrying
// its full spec and state, because the child hashes to its own shard where
// the parent's shard-local LSNs mean nothing.

import (
	"context"
	"fmt"

	"specmatch/internal/eventlog"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// ForkResult reports one fork: the child's id and initial snapshot, and the
// source-shard LSN the prefix was cut at (resolved when the request said
// "now").
type ForkResult struct {
	ID       string
	From     string
	AtLSN    uint64
	Snapshot online.Snapshot
}

// forkedState is phase one's output: the source session's spec and exact
// state at the fork LSN.
type forkedState struct {
	spec  market.Spec
	state online.Snapshot
	at    uint64
}

// Fork creates a new session from session id's durable state at lsn; lsn 0
// means the current durable tail. Errors: ErrNotFound for unknown ids,
// ErrNotDurable on an in-memory store, ErrLSNHorizon when lsn is past the
// durable tail, below the newest checkpoint (the records before it are
// deleted on rotation), or before the session existed, and ErrSessionLimit
// when the child would exceed MaxSessions (checked after the source is
// found, so an unknown id on a full store is still ErrNotFound).
func (st *Store) Fork(ctx context.Context, id string, lsn uint64) (ForkResult, error) {
	src := st.shardOf(id)
	v, err := st.do(ctx, src, func(sc trace.SpanContext) (any, error) {
		if _, ok := src.sessions[id]; !ok {
			return nil, ErrNotFound
		}
		if src.dir == nil {
			return nil, ErrNotDurable
		}
		at := lsn
		if at == 0 {
			at = src.nextLSN
		}
		if at > src.nextLSN {
			return nil, fmt.Errorf("%w: lsn %d is past the shard's last record %d", ErrLSNHorizon, at, src.nextLSN)
		}
		// Sync first so the scan below sees every acknowledged (and every
		// applied-but-unacked) record through src.nextLSN. The scan itself is
		// read-only and runs on the shard goroutine, so no append can land
		// mid-scan.
		if err := src.dir.Sync(); err != nil {
			return nil, fmt.Errorf("server: fork: syncing wal: %w", err)
		}
		recd, err := wal.ReadState(src.dir.Path())
		if err != nil {
			return nil, fmt.Errorf("server: fork: reading shard state: %w", err)
		}
		if at < recd.SnapshotLSN {
			return nil, fmt.Errorf("%w: lsn %d predates the newest checkpoint at %d (earlier records are rotated away)",
				ErrLSNHorizon, at, recd.SnapshotLSN)
		}
		fs, err := st.assembleFork(id, at, recd)
		if err != nil {
			return nil, err
		}
		return fs, nil
	})
	if err != nil {
		return ForkResult{}, err
	}
	fs := v.(forkedState)

	newID := fmt.Sprintf("m%08x", st.nextID.Add(1))
	dst := st.shardOf(newID)
	v, err = st.do(ctx, dst, func(trace.SpanContext) (any, error) {
		var d *durable
		if dst.dir != nil {
			d = dst.prepareDurable(wal.TypeFork,
				eventlog.Fork{ID: newID, From: id, AtLSN: fs.at, Spec: fs.spec, State: fs.state}.Encode())
		}
		s, err := st.insert(dst, newID, func() (*online.Session, error) {
			s, err := st.restore(fs.spec, fs.state)
			if err != nil {
				return nil, fmt.Errorf("server: fork: restoring state: %w", err)
			}
			return s, nil
		})
		if err != nil {
			return nil, err
		}
		st.forked.Inc()
		return d.result(s.Snapshot()), nil
	})
	if err != nil {
		return ForkResult{}, err
	}
	return ForkResult{ID: newID, From: id, AtLSN: fs.at, Snapshot: v.(online.Snapshot)}, nil
}

// assembleFork rebuilds session id's state at LSN at from a shard scan:
// start from the checkpoint's copy if the session is in it, then replay the
// records with checkpoint LSN < record LSN ≤ at through applyRecord into a
// one-entry session map, skipping every other session's records. The
// engine's bit-determinism makes the result exactly the state the live
// session had when the shard's LSN counter stood at at.
func (st *Store) assembleFork(id string, at uint64, recd *wal.Recovered) (forkedState, error) {
	sessions := make(map[string]*online.Session, 1)
	if len(recd.SnapshotBody) > 0 {
		cp, err := eventlog.DecodeCheckpoint(recd.SnapshotBody)
		if err != nil {
			return forkedState{}, fmt.Errorf("server: fork: decoding checkpoint: %w", err)
		}
		for _, sc := range cp.Sessions {
			if sc.ID != id {
				continue
			}
			s, err := st.restore(sc.Spec, sc.State)
			if err != nil {
				return forkedState{}, fmt.Errorf("server: fork: restoring %s from checkpoint: %w", id, err)
			}
			sessions[id] = s
			break
		}
	}
	var maxID uint64 // the child's id is minted by Fork, not recovered
	for _, r := range recd.Records {
		if r.LSN > at {
			break
		}
		if err := st.applyRecord(sessions, id, r, &maxID); err != nil {
			return forkedState{}, fmt.Errorf("server: fork: replaying lsn %d: %w", r.LSN, err)
		}
	}
	// A missing session was created after at — or deleted, which a live id
	// never is, since ids are not reused.
	s, ok := sessions[id]
	if !ok {
		return forkedState{}, fmt.Errorf("%w: session %s did not exist at lsn %d", ErrLSNHorizon, id, at)
	}
	// The spec must come from the session's own market, not the one it was
	// built from: sessions clone their market, and replayed move events
	// rewire the clone's geometry and graphs — the create-time market never
	// sees them.
	return forkedState{spec: s.Market().Spec(), state: s.Snapshot(), at: at}, nil
}
