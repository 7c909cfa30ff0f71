// Command genv0fixture regenerates the committed v0-format golden data dir
// under internal/server/testdata. v0 is the WAL body encoding specserved
// shipped with before the unified event schema (internal/eventlog): plain
// JSON bodies — `{"id","spec"}` for creates, `{"id","event"}` for steps,
// `{"id"}` for rebuilds and deletes, and a sorted `{"next_id","sessions"}`
// checkpoint. The generator hand-rolls those bodies instead of calling the
// server's encoder precisely so it keeps producing v0 bytes after the
// server moved on: the fixture pins backward compatibility, so it must not
// follow the current writer.
//
//	go run ./scripts/genv0fixture
//
// Layout produced (deterministic: fixed seeds, no timestamps):
//
//	internal/server/testdata/v0-datadir/     meta.json + two shards, each a
//	                                         JSON-body checkpoint plus a live
//	                                         log of create/step/rebuild/delete
//	                                         records; shard-001's log ends in
//	                                         a torn frame (crash signature)
//	internal/server/testdata/v0-expected.json  the session snapshots recovery
//	                                         must reproduce, captured by
//	                                         recovering a copy of the fixture
//
// The compat test (TestV0DataDirRecovery) recovers the committed dir and
// compares bit-for-bit against the expected file; regeneration is only ever
// needed if the *fixture shape* changes, never because the codec did.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/server"
	"specmatch/internal/wal"
)

// coreOptions is the engine configuration the fixture sessions step with.
// Recovery re-steps them under the store's own options; both are the default
// engine, and the output is bit-identical regardless of observers.
func coreOptions() core.Options { return core.Options{} }

// The v0 body shapes, JSON tags exactly as the pre-eventlog server wrote
// them. Kept local on purpose; see the package comment.
type v0Create struct {
	ID   string      `json:"id"`
	Spec market.Spec `json:"spec"`
}
type v0Step struct {
	ID    string       `json:"id"`
	Event online.Event `json:"event"`
}
type v0ID struct {
	ID string `json:"id"`
}
type v0Checkpoint struct {
	NextID   uint64        `json:"next_id"`
	Sessions []v0SessState `json:"sessions"`
}
type v0SessState struct {
	ID    string          `json:"id"`
	Spec  market.Spec     `json:"spec"`
	State online.Snapshot `json:"state"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "genv0fixture:", err)
		os.Exit(1)
	}
}

// fnvShard mirrors the store's id → shard pinning (FNV-1a mod shards).
func fnvShard(id string, shards int) int {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime
	}
	return int(h % uint32(shards))
}

func run() error {
	root := filepath.Join("internal", "server", "testdata")
	dataDir := filepath.Join(root, "v0-datadir")
	if err := os.RemoveAll(dataDir); err != nil {
		return err
	}
	const shards = 2
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	meta, _ := json.Marshal(map[string]int{"format": 1, "shards": shards})
	if err := os.WriteFile(filepath.Join(dataDir, "meta.json"), append(meta, '\n'), 0o644); err != nil {
		return err
	}

	// Build the fleet state the checkpoints describe: four sessions stepped
	// through a churn prefix entirely in memory (the deterministic engine
	// makes these snapshots exactly what the v0 server would have
	// checkpointed).
	type sess struct {
		id    string
		m     *market.Market
		s     *online.Session
		shard int
	}
	var fleet []*sess
	for k := 0; k < 4; k++ {
		m, err := market.Generate(market.Config{Sellers: 3, Buyers: 10, Seed: int64(300 + k)})
		if err != nil {
			return err
		}
		s, err := online.NewSession(m, coreOptions())
		if err != nil {
			return err
		}
		id := fmt.Sprintf("m%08x", k+1)
		fleet = append(fleet, &sess{id: id, m: m, s: s, shard: fnvShard(id, shards)})
	}
	// Checkpointed prefix: every session takes a few steps before the
	// snapshot is cut.
	for k, ss := range fleet {
		for _, ev := range online.SyntheticChurn(ss.m, int64(50+k), 3) {
			if _, err := ss.s.Step(ev); err != nil {
				return err
			}
		}
	}

	// Per-shard checkpoints at the LSN where that shard's log then begins.
	perShard := make([][]*sess, shards)
	for _, ss := range fleet {
		perShard[ss.shard] = append(perShard[ss.shard], ss)
	}
	ckptLSN := [shards]uint64{7, 9} // arbitrary but > 0: replay must filter on it
	for i := 0; i < shards; i++ {
		cp := v0Checkpoint{NextID: uint64(len(fleet))}
		sort.Slice(perShard[i], func(a, b int) bool { return perShard[i][a].id < perShard[i][b].id })
		for _, ss := range perShard[i] {
			cp.Sessions = append(cp.Sessions, v0SessState{ID: ss.id, Spec: ss.m.Spec(), State: ss.s.Snapshot()})
		}
		body, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		shardDir := filepath.Join(dataDir, fmt.Sprintf("shard-%03d", i))
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return err
		}
		buf := append([]byte{}, wal.Magic[:]...)
		buf = wal.AppendRecord(buf, wal.Record{Type: wal.TypeSnapshot, LSN: ckptLSN[i], Body: body})
		if err := os.WriteFile(filepath.Join(shardDir, fmt.Sprintf("snap-%016x.ckpt", 3)), buf, 0o644); err != nil {
			return err
		}
	}

	// Live logs past the checkpoints: steps on every session, one
	// post-checkpoint create (id survives only in its create record), one
	// rebuild, one delete. Bodies are v0 JSON.
	logs := make([][]byte, shards)
	lsn := ckptLSN
	appendRec := func(shard int, typ wal.Type, body any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		lsn[shard]++
		logs[shard] = wal.AppendRecord(logs[shard], wal.Record{Type: typ, LSN: lsn[shard], Body: data})
		return nil
	}
	for k, ss := range fleet {
		for _, ev := range online.SyntheticChurn(ss.m, int64(70+k), 2) {
			if err := appendRec(ss.shard, wal.TypeStep, v0Step{ID: ss.id, Event: ev}); err != nil {
				return err
			}
		}
	}
	// A session created after the checkpoint, then stepped.
	m5, err := market.Generate(market.Config{Sellers: 2, Buyers: 8, Seed: 305})
	if err != nil {
		return err
	}
	id5 := fmt.Sprintf("m%08x", 5)
	sh5 := fnvShard(id5, shards)
	if err := appendRec(sh5, wal.TypeCreate, v0Create{ID: id5, Spec: m5.Spec()}); err != nil {
		return err
	}
	if err := appendRec(sh5, wal.TypeStep, v0Step{ID: id5, Event: online.Event{Arrive: []int{0, 3, 5}}}); err != nil {
		return err
	}
	if err := appendRec(fleet[0].shard, wal.TypeRebuild, v0ID{ID: fleet[0].id}); err != nil {
		return err
	}
	if err := appendRec(fleet[1].shard, wal.TypeDelete, v0ID{ID: fleet[1].id}); err != nil {
		return err
	}
	// Crash signature on shard-001: a torn final frame (recovery must drop
	// it silently — it was never acknowledged).
	torn := wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: lsn[1] + 1,
		Body: []byte(`{"id":"m00000002","event":{"arrive":[1]}}`)})
	logs[1] = append(logs[1], torn[:len(torn)-5]...)

	for i := 0; i < shards; i++ {
		buf := append(append([]byte{}, wal.Magic[:]...), logs[i]...)
		if err := os.WriteFile(filepath.Join(dataDir, fmt.Sprintf("shard-%03d", i), fmt.Sprintf("wal-%016x.log", 3)), buf, 0o644); err != nil {
			return err
		}
	}

	// Expected state: recover a COPY (recovery rewrites checkpoints) and
	// record every session snapshot. Whatever engine version replays this is
	// pinned to produce these exact snapshots.
	tmp, err := os.MkdirTemp("", "v0fixture")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := copyTree(dataDir, tmp); err != nil {
		return err
	}
	st, err := server.NewStore(server.Config{Shards: shards, DataDir: tmp})
	if err != nil {
		return fmt.Errorf("recovering generated fixture: %w", err)
	}
	defer st.Close()
	ctx := context.Background()
	ids, err := st.List(ctx)
	if err != nil {
		return err
	}
	expected := make(map[string]online.Snapshot, len(ids))
	for _, id := range ids {
		snap, err := st.Get(ctx, id)
		if err != nil {
			return err
		}
		expected[id] = snap
	}
	out, err := json.MarshalIndent(expected, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "v0-expected.json"), append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sessions expected after recovery)\n", dataDir, len(expected))
	return nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
