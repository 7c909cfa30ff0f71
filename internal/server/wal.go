package server

// This file is the WAL glue: the record payloads the store logs, checkpoint
// bodies, the data-dir meta file, and startup recovery. The wal package
// owns bytes and files; internal/eventlog owns the body encoding (v1 binary
// canonical, v0 JSON still decoded for pre-schema data dirs); this file owns
// what the records mean — how a shard's session map becomes a checkpoint and
// how records replay into live sessions. Recovery, follower apply
// (replica.go) and fork (fork.go) all replay through applyRecord and
// restore. Replay leans on the engine's bit-determinism (same market, same
// event order ⇒ same matching), so a recovered, replicated or forked
// session is indistinguishable from one that never crashed.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/replica"
	"specmatch/internal/wal"
)

// marshalCheckpoint serializes a shard's sessions, sorted by id so the
// bytes are deterministic for a given state, plus the store's id counter.
func marshalCheckpoint(nextID uint64, sessions map[string]*online.Session) []byte {
	cp := eventlog.Checkpoint{NextID: nextID, Sessions: make([]eventlog.SessionState, 0, len(sessions))}
	ids := make([]string, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s := sessions[id]
		cp.Sessions = append(cp.Sessions, eventlog.SessionState{
			ID:    id,
			Spec:  s.Market().Spec(),
			State: s.Snapshot(),
		})
	}
	return cp.Encode()
}

// metaFile pins the layout parameters a data dir was written with. Session
// ids hash to shards, so reopening with a different shard count would strand
// every session in the wrong directory; refusing with a clear error beats a
// silent wrong-shard recovery.
type metaFile struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
}

const metaName = "meta.json"

func (st *Store) checkMeta() error {
	path := filepath.Join(st.cfg.DataDir, metaName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		m, merr := json.Marshal(metaFile{Format: 1, Shards: st.cfg.Shards})
		if merr != nil {
			return merr
		}
		return writeMeta(st.cfg.DataDir, append(m, '\n'))
	}
	if err != nil {
		return err
	}
	var m metaFile
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("server: %s: %w", metaName, err)
	}
	if m.Format != 1 {
		return fmt.Errorf("server: %s: unsupported format %d", metaName, m.Format)
	}
	if m.Shards != st.cfg.Shards {
		return fmt.Errorf("server: data dir %s was written with %d shards, store configured with %d; "+
			"restart with -shards %d (session ids are sharded by hash, so the counts must match)",
			st.cfg.DataDir, m.Shards, st.cfg.Shards, m.Shards)
	}
	return nil
}

// writeMeta writes meta.json the way the wal package writes a checkpoint:
// a tmp file, fsynced and closed, renamed into place, then a directory
// fsync. A crash can leave a stale tmp file, which the next start truncates,
// but never an empty or partial meta.json.
func writeMeta(dir string, data []byte) error {
	path := filepath.Join(dir, metaName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return wal.SyncDir(dir)
}

// openWAL opens every shard directory, rebuilds the sessions from the
// newest checkpoint plus log replay, writes a fresh post-recovery
// checkpoint per shard (which also persists any torn-tail truncation), and
// leaves each shard ready to append. Runs before the shard goroutines
// start, so it may touch shard state directly.
func (st *Store) openWAL() error {
	if err := os.MkdirAll(st.cfg.DataDir, 0o755); err != nil {
		return err
	}
	if err := st.checkMeta(); err != nil {
		return err
	}
	stats := func(records, bytes int, took time.Duration) {
		st.walFsyncs.Inc()
		st.walFsyncSeconds.Observe(took.Seconds())
	}
	// First pass: replay every shard, accumulating the id high-water mark
	// from checkpoints, replayed create records, and live session ids.
	var maxID uint64
	for i, sh := range st.shards {
		dir, recd, err := wal.Open(st.shardDir(i), st.cfg.WALRepair, stats)
		if err != nil {
			return fmt.Errorf("server: shard %d: %w (restart with WAL repair to truncate at the corruption)", i, err)
		}
		sh.dir = dir
		if err := st.replayShard(i, sh, recd, &maxID); err != nil {
			return err
		}
		sh.nextLSN = recd.MaxLSN
		sh.durableLSN.Store(recd.MaxLSN)
		// The replication feed starts at the recovered tail: nothing below it
		// will ever be published, so stream subscribers read older records
		// from the files and attach for everything after.
		sh.feed = replica.NewFeed(recd.MaxLSN)
		dir.SetOnDurable(sh.feed.Publish)
		st.Recovery.Sessions += len(sh.sessions)
		st.Recovery.TornRecords += recd.TornRecords
		st.Recovery.RepairedRecords += recd.RepairedRecords
		st.walRecovTorn.Add(int64(recd.TornRecords))
		st.walRecovRepaired.Add(int64(recd.RepairedRecords))
		st.walRecovSessions.Add(int64(len(sh.sessions)))

		// Restore gauges and scan live ids (covers checkpoints from before
		// the counter was persisted in the checkpoint body).
		sh.sessGauge.Set(int64(len(sh.sessions)))
		st.sessGauge.Add(int64(len(sh.sessions)))
		st.live.Add(int64(len(sh.sessions)))
		for id := range sh.sessions {
			bumpIDHighWater(&maxID, id)
		}
	}
	st.nextID.Store(maxID)

	// wal.Open creates a missing shard directory, and checkpoints fsync only
	// inside their own directory, so the data dir's entries for new shard
	// directories are made durable here, before any write can be acked.
	if err := wal.SyncDir(st.cfg.DataDir); err != nil {
		return fmt.Errorf("server: syncing data dir: %w", err)
	}

	// Second pass, once the store-wide counter is known: the recovered state
	// becomes each shard's new baseline and the old (possibly torn) logs are
	// deleted.
	for i, sh := range st.shards {
		if err := sh.dir.Checkpoint(sh.nextLSN, marshalCheckpoint(maxID, sh.sessions)); err != nil {
			return fmt.Errorf("server: shard %d: post-recovery checkpoint: %w", i, err)
		}
		sh.ckptLSN.Store(sh.nextLSN)
	}
	return nil
}

// bumpIDHighWater raises *maxID to a store-issued session id's number; ids
// that do not parse (never minted by Create) are ignored.
func bumpIDHighWater(maxID *uint64, id string) {
	if n, err := strconv.ParseUint(strings.TrimPrefix(id, "m"), 16, 64); err == nil && n > *maxID {
		*maxID = n
	}
}

// replayShard rebuilds shard i's sessions: checkpoint load, then log
// replay. An intact log cannot fail to replay (only validated events were
// logged, and the engine is deterministic); a record that does fail is
// treated like corruption — fatal without WALRepair, truncate-and-continue
// with it.
func (st *Store) replayShard(i int, sh *shard, recd *wal.Recovered, maxID *uint64) error {
	if len(recd.SnapshotBody) > 0 {
		cp, err := eventlog.DecodeCheckpoint(recd.SnapshotBody)
		if err != nil {
			if !st.cfg.WALRepair {
				return fmt.Errorf("server: shard %d: decoding checkpoint: %w", i, err)
			}
			st.Recovery.RepairedRecords++
			st.walRecovRepaired.Inc()
		} else {
			if cp.NextID > *maxID {
				*maxID = cp.NextID
			}
			for _, sc := range cp.Sessions {
				s, err := st.restore(sc.Spec, sc.State)
				if err == nil {
					sh.sessions[sc.ID] = s
					continue
				}
				if !st.cfg.WALRepair {
					return fmt.Errorf("server: shard %d: restoring session %s: %w", i, sc.ID, err)
				}
				st.Recovery.RepairedRecords++
				st.walRecovRepaired.Inc()
			}
		}
	}
	for k, r := range recd.Records {
		if err := st.applyRecord(sh.sessions, "", r, maxID); err != nil {
			if !st.cfg.WALRepair {
				return fmt.Errorf("server: shard %d: replaying lsn %d: %w", i, r.LSN, err)
			}
			// Prefix semantics: everything from the bad record on is
			// dropped, mirroring a truncation at the corruption point.
			dropped := len(recd.Records) - k
			st.Recovery.RepairedRecords += dropped
			st.walRecovRepaired.Add(int64(dropped))
			break
		}
		st.Recovery.Records++
		st.walRecovRecords.Inc()
	}
	return nil
}

// restore rebuilds a live session from a market spec and an engine
// snapshot. It is the one place a checkpointed, shipped or forked session
// comes back, so every copy runs the engine options a created session does.
func (st *Store) restore(spec market.Spec, state online.Snapshot) (*online.Session, error) {
	m, err := market.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	return online.FromSnapshot(m, state, st.sessionOptions())
}

// applyRecord replays one log record against a session map, raising *maxID
// past every id a create or fork record shows was issued — a session
// created then deleted between checkpoints appears nowhere else. It is the
// only code that decodes and applies log records: recovery and follower
// apply pass a shard's whole map with only empty; fork passes a one-entry
// map with only set to the source id, and records for any other session
// are decoded and skipped.
func (st *Store) applyRecord(sessions map[string]*online.Session, only string, r wal.Record, maxID *uint64) error {
	other := func(id string) bool { return only != "" && id != only }
	switch r.Type {
	case wal.TypeCreate:
		b, err := eventlog.DecodeCreate(r.Body)
		if err != nil {
			return fmt.Errorf("decoding create: %w", err)
		}
		if other(b.ID) {
			return nil
		}
		m, err := market.FromSpec(b.Spec)
		if err != nil {
			return fmt.Errorf("create %s: %w", b.ID, err)
		}
		s, err := online.NewSession(m, st.sessionOptions())
		if err != nil {
			return fmt.Errorf("create %s: %w", b.ID, err)
		}
		sessions[b.ID] = s
		bumpIDHighWater(maxID, b.ID)
	case wal.TypeStep:
		b, err := eventlog.DecodeStep(r.Body)
		if err != nil {
			return fmt.Errorf("decoding step: %w", err)
		}
		if other(b.ID) {
			return nil
		}
		s, ok := sessions[b.ID]
		if !ok {
			return fmt.Errorf("step for unknown session %s", b.ID)
		}
		if _, err := s.Step(b.Event); err != nil {
			return fmt.Errorf("step %s: %w", b.ID, err)
		}
	case wal.TypeRebuild, wal.TypeDelete:
		b, err := eventlog.DecodeRef(r.Body)
		if err != nil {
			return fmt.Errorf("decoding %s: %w", r.Type, err)
		}
		if other(b.ID) {
			return nil
		}
		s, ok := sessions[b.ID]
		if !ok {
			return fmt.Errorf("%s for unknown session %s", r.Type, b.ID)
		}
		if r.Type == wal.TypeDelete {
			delete(sessions, b.ID)
		} else if _, err := s.Rebuild(true); err != nil {
			return fmt.Errorf("rebuild %s: %w", b.ID, err)
		}
	case wal.TypeFork:
		// A fork record is self-contained: the child's complete state at the
		// moment it split off, replayed exactly like a checkpointed session.
		b, err := eventlog.DecodeFork(r.Body)
		if err != nil {
			return fmt.Errorf("decoding fork: %w", err)
		}
		if other(b.ID) {
			return nil
		}
		s, err := st.restore(b.Spec, b.State)
		if err != nil {
			return fmt.Errorf("fork %s: %w", b.ID, err)
		}
		sessions[b.ID] = s
		bumpIDHighWater(maxID, b.ID)
	default:
		return fmt.Errorf("unexpected %s record in log", r.Type)
	}
	return nil
}
