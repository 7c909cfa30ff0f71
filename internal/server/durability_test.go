package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

// durableConfig is the standard test configuration for a durable store,
// with a registry so the server.wal.* metrics are exercised.
func durableConfig(dir string, shards int) Config {
	return Config{
		Shards:  shards,
		DataDir: dir,
		Metrics: obs.NewRegistry(),
	}
}

func mustStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// snapshotAll captures every live session's state, keyed by id.
func snapshotAll(t *testing.T, st *Store) map[string]online.Snapshot {
	t.Helper()
	ctx := context.Background()
	ids, err := st.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]online.Snapshot, len(ids))
	for _, id := range ids {
		snap, err := st.Get(ctx, id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		out[id] = snap
	}
	return out
}

// A graceful close writes checkpoints; reopening the same directory must
// bring back every session bit-for-bit, across shards.
func TestDurableRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, 3)
	st := mustStore(t, cfg)
	ctx := context.Background()

	r := rand.New(rand.NewSource(11))
	var ids []string
	for k := 0; k < 9; k++ {
		m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: int64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := st.Create(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 120; i++ {
		id := ids[r.Intn(len(ids))]
		if _, err := st.Step(ctx, id, online.Event{Arrive: []int{r.Intn(12)}, Depart: []int{r.Intn(12)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Rebuild(ctx, ids[0], true); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(ctx, ids[1]); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(t, st)
	st.Close()

	if n := cfg.Metrics.CounterValue("server.wal.appends"); n == 0 {
		t.Error("server.wal.appends never incremented")
	}
	if n := cfg.Metrics.CounterValue("server.wal.fsyncs"); n == 0 {
		t.Error("server.wal.fsyncs never incremented")
	}
	if n := cfg.Metrics.CounterValue("server.wal.checkpoints"); n == 0 {
		t.Error("server.wal.checkpoints never incremented")
	}
	if n := cfg.Metrics.CounterValue("server.wal.errors"); n != 0 {
		t.Errorf("server.wal.errors = %d on a clean run", n)
	}

	cfg2 := durableConfig(dir, 3)
	st2 := mustStore(t, cfg2)
	defer st2.Close()
	got := snapshotAll(t, st2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %d sessions %+v\nwant %d sessions %+v", len(got), got, len(want), want)
	}
	if st2.Recovery.Sessions != len(want) {
		t.Errorf("Recovery.Sessions = %d, want %d", st2.Recovery.Sessions, len(want))
	}
	// A recovered store keeps serving: new creates must not collide with
	// recovered ids.
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st2.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want[id]; ok {
		t.Fatalf("new session id %s collides with a recovered one", id)
	}
}

// Deleting the highest-numbered session and restarting must not regress the
// id counter: a post-recovery Create must mint a fresh id, never one a
// client already holds for a different session. Covers both recovery paths
// — the counter persisted in checkpoint bodies (graceful close) and ids
// harvested from replayed create records (crash image, where the deleted
// session's id survives only in its create record).
func TestNextIDNeverRegresses(t *testing.T) {
	ctx := context.Background()
	build := func(t *testing.T, st *Store) []string {
		t.Helper()
		var ids []string
		for k := 0; k < 3; k++ {
			m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: int64(k + 1)})
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := st.Create(ctx, m)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		// ids are minted in sequence, so the last one is the high-water mark.
		if err := st.Delete(ctx, ids[len(ids)-1]); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	checkFresh := func(t *testing.T, st *Store, issued []string) {
		t.Helper()
		m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := st.Create(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range issued {
			if id == old {
				t.Fatalf("recovered store re-issued id %s", id)
			}
		}
	}

	t.Run("graceful-close", func(t *testing.T) {
		dir := t.TempDir()
		st := mustStore(t, durableConfig(dir, 2))
		ids := build(t, st)
		st.Close()
		st2 := mustStore(t, durableConfig(dir, 2))
		defer st2.Close()
		checkFresh(t, st2, ids)
	})

	t.Run("crash-image", func(t *testing.T) {
		liveDir, imageDir := t.TempDir(), t.TempDir()
		st := mustStore(t, durableConfig(liveDir, 2))
		defer st.Close()
		ids := build(t, st)
		copyTree(t, liveDir, imageDir)
		st2 := mustStore(t, durableConfig(imageDir, 2))
		defer st2.Close()
		checkFresh(t, st2, ids)
	})
}

// copyTree clones a data directory — a poor man's crash image: the files as
// they are mid-run, with live logs and no graceful checkpoint.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}
}

// crashImage builds a durable store, runs ops against it, and snapshots both
// its state and a copy of its data dir taken WITHOUT closing — so recovery
// has to replay the live log, not just load a graceful checkpoint.
func crashImage(t *testing.T, ops, ckptEvery int) (imageDir string, want map[string]online.Snapshot) {
	t.Helper()
	liveDir := t.TempDir()
	imageDir = t.TempDir()
	cfg := durableConfig(liveDir, 2)
	cfg.CheckpointEvery = ckptEvery
	st := mustStore(t, cfg)
	defer st.Close()
	ctx := context.Background()

	r := rand.New(rand.NewSource(23))
	var ids []string
	for k := 0; k < 6; k++ {
		m, err := market.Generate(market.Config{Sellers: 3, Buyers: 10, Seed: int64(k + 41)})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := st.Create(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < ops; i++ {
		id := ids[r.Intn(len(ids))]
		if _, err := st.Step(ctx, id, online.Event{Arrive: []int{r.Intn(10)}, Depart: []int{r.Intn(10)}}); err != nil {
			t.Fatal(err)
		}
	}
	want = snapshotAll(t, st)
	copyTree(t, liveDir, imageDir)
	return imageDir, want
}

// Recovery from a crash image replays the log into exactly the state the
// original held when the image was taken.
func TestRecoveryReplaysLiveLog(t *testing.T) {
	// ckptEvery beyond the op count: everything recovers from the log.
	dir, want := crashImage(t, 80, 1000)
	cfg := durableConfig(dir, 2)
	st := mustStore(t, cfg)
	defer st.Close()
	if got := snapshotAll(t, st); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state differs from the crashed store's:\n got %+v\nwant %+v", got, want)
	}
	if st.Recovery.Records == 0 {
		t.Error("recovery claims zero replayed records; the test meant to exercise log replay")
	}

	// With frequent checkpoints the same image recovers through a mix of
	// checkpoint load and shorter replay — same resulting state.
	dir2, want2 := crashImage(t, 80, 16)
	st2 := mustStore(t, durableConfig(dir2, 2))
	defer st2.Close()
	if got := snapshotAll(t, st2); !reflect.DeepEqual(got, want2) {
		t.Fatal("checkpoint+replay recovery differs from the crashed store's state")
	}
}

// A torn tail on a crash image is dropped silently; mid-log corruption
// refuses startup unless WALRepair, which keeps the intact prefix.
func TestRecoveryTornAndCorrupt(t *testing.T) {
	dir, want := crashImage(t, 60, 1000)
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("no logs in crash image: %v", err)
	}

	// Torn tail: append half a frame to one shard's log.
	frame := wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: 1 << 40, Body: []byte(`{"id":"mdeadbeef","event":{}}`)})
	f, err := os.OpenFile(logs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st := mustStore(t, durableConfig(dir, 2))
	if got := snapshotAll(t, st); !reflect.DeepEqual(got, want) {
		t.Fatal("state after torn-tail truncation differs")
	}
	if st.Recovery.TornRecords == 0 {
		t.Error("torn tail not counted")
	}
	st.Close()

	// Mid-log corruption: flip a byte early in a log that has records after
	// it. Use a fresh image (the store above checkpointed on open and close).
	dir2, _ := crashImage(t, 60, 1000)
	logs2, _ := filepath.Glob(filepath.Join(dir2, "shard-*", "wal-*.log"))
	var victim string
	for _, lg := range logs2 {
		if fi, err := os.Stat(lg); err == nil && fi.Size() > 256 {
			victim = lg
			break
		}
	}
	if victim == "" {
		t.Fatal("no log long enough to corrupt mid-file")
	}
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff // past the magic and first header, well before EOF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := durableConfig(dir2, 2)
	if _, err := NewStore(cfg); err == nil {
		t.Fatal("store started over mid-log corruption without repair")
	} else if !strings.Contains(err.Error(), "WAL repair") {
		t.Errorf("corruption error does not point at repair: %v", err)
	}
	cfg = durableConfig(dir2, 2)
	cfg.WALRepair = true
	st2, err := NewStore(cfg)
	if err != nil {
		t.Fatalf("repair mode refused to start: %v", err)
	}
	defer st2.Close()
	if st2.Recovery.RepairedRecords == 0 {
		t.Error("repair mode dropped nothing despite corruption")
	}
	// Repaired sessions must still be internally consistent prefixes.
	for id, snap := range snapshotAll(t, st2) {
		if _, err := st2.Step(context.Background(), id, online.Event{}); err != nil {
			t.Errorf("repaired session %s rejects an empty event: %v", id, err)
		}
		if snap.Matched > snap.Active {
			t.Errorf("repaired session %s inconsistent: %d matched of %d active", id, snap.Matched, snap.Active)
		}
	}
}

// An event that fails validation must leave no trace in the WAL: replay only
// ever sees applied events.
func TestFailedEventsNeverReachWAL(t *testing.T) {
	dir := t.TempDir()
	st := mustStore(t, durableConfig(dir, 1))
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	good := 0
	for _, ev := range []online.Event{
		{Arrive: []int{0, 1, 2}},
		{Arrive: []int{99}}, // out of range: rejected
		{Depart: []int{1}},
		{ChannelDown: []int{-4}},              // rejected
		{Arrive: []int{3}, Depart: []int{50}}, // rejected as a whole
	} {
		if _, err := st.Step(ctx, id, ev); err == nil {
			good++
		}
	}
	if good != 2 {
		t.Fatalf("fixture drift: %d events applied, want 2", good)
	}

	// The live log must contain exactly one create + the applied steps.
	logs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want one live log, got %v (%v)", logs, err)
	}
	data, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ScanFile(data)
	if err != nil {
		t.Fatal(err)
	}
	steps, creates := 0, 0
	for _, r := range recs {
		switch r.Type {
		case wal.TypeStep:
			steps++
		case wal.TypeCreate:
			creates++
		}
	}
	if creates != 1 || steps != good {
		t.Fatalf("log holds %d creates and %d steps; want 1 and %d", creates, steps, good)
	}

	want := snapshotAll(t, st)
	st.Close()
	st2 := mustStore(t, durableConfig(dir, 1))
	defer st2.Close()
	got := snapshotAll(t, st2)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered state differs after rejected events")
	}
	if got[id].Steps != good {
		t.Fatalf("recovered session counts %d steps, want %d", got[id].Steps, good)
	}
}

// The drain barrier: every Step acknowledged before Close must exist after a
// reopen — accepted == applied == durable, under concurrency.
func TestDurableDrainBarrier(t *testing.T) {
	dir := t.TempDir()
	st := mustStore(t, durableConfig(dir, 2))
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for k := 0; k < 4; k++ {
		id, _, err := st.Create(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		w := w
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w + i) % len(ids)
				if _, err := st.Step(ctx, ids[k], online.Event{Arrive: []int{(w*7 + i) % 16}}); err != nil {
					return // draining
				}
			}
		}()
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	// Every Step that returned success above was acked after its WAL fsync;
	// the snapshot taken now is therefore entirely durable state.
	totals := snapshotAll(t, st)
	st.Close()

	st2 := mustStore(t, durableConfig(dir, 2))
	defer st2.Close()
	got := snapshotAll(t, st2)
	if !reflect.DeepEqual(got, totals) {
		t.Fatalf("recovered state differs from pre-close state:\n got %+v\nwant %+v", got, totals)
	}
}

// Reopening a data dir with a different shard count must refuse with a
// message naming the original count — ids hash to shards.
func TestMetaShardMismatch(t *testing.T) {
	dir := t.TempDir()
	st := mustStore(t, durableConfig(dir, 2))
	st.Close()
	_, err := NewStore(durableConfig(dir, 3))
	if err == nil {
		t.Fatal("store reopened a 2-shard dir with 3 shards")
	}
	if !strings.Contains(err.Error(), "2 shards") {
		t.Errorf("mismatch error does not name the original count: %v", err)
	}
}

// TestMetaWrite: a first start leaves meta.json and no tmp file behind, and
// a stale partial meta.json.tmp, as a crash before the rename leaves it,
// does not stop the next start. The fsyncs themselves are not observable
// here.
func TestMetaWrite(t *testing.T) {
	for _, stale := range []bool{false, true} {
		dir := t.TempDir()
		tmp := filepath.Join(dir, metaName+".tmp")
		if stale {
			if err := os.WriteFile(tmp, []byte(`{"format":1,"sha`), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		mustStore(t, durableConfig(dir, 2)).Close()
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("stale=%v: %s left behind (stat err %v)", stale, tmp, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, metaName))
		if err != nil {
			t.Fatal(err)
		}
		var m metaFile
		if err := json.Unmarshal(data, &m); err != nil || m != (metaFile{Format: 1, Shards: 2}) {
			t.Errorf("stale=%v: meta.json %q (err %v), want format 1 with 2 shards", stale, data, err)
		}
		mustStore(t, durableConfig(dir, 2)).Close()
	}
}

// Durable mutations must produce wal.append spans (spanning append →
// durable) and checkpoints wal.checkpoint spans.
func TestWALSpans(t *testing.T) {
	fl := trace.NewFlight(1 << 12)
	cfg := durableConfig(t.TempDir(), 1)
	cfg.Flight = fl
	st := mustStore(t, cfg)
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(ctx, id, online.Event{Arrive: []int{0}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	appends, ckpts := 0, 0
	byID := make(map[trace.SpanID]trace.Span)
	var walSpans []trace.Span
	for _, s := range fl.Snapshot() {
		byID[s.ID] = s
		switch s.Name {
		case "wal.append":
			appends++
			walSpans = append(walSpans, s)
		case "wal.checkpoint":
			ckpts++
		}
	}
	if appends < 2 { // create + step
		t.Errorf("%d wal.append spans, want >= 2", appends)
	}
	if ckpts == 0 {
		t.Error("no wal.checkpoint spans")
	}
	for _, s := range walSpans {
		if byID[s.Parent].Name != "server.shard_op" {
			t.Errorf("wal.append span parented on %q, want server.shard_op", byID[s.Parent].Name)
		}
	}
}

// The property the crash test leans on, checked hermetically: restarting a
// durable store at ANY prefix of an operation sequence and continuing must
// end bit-for-bit where an uninterrupted in-memory store ends, with
// identical per-operation results throughout — across seeds.
func TestReplayEquivalenceAcrossPrefixes(t *testing.T) {
	type walOp struct {
		kind  int // 0 step, 1 rebuild, 2 delete
		sess  int
		event online.Event
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			const fleet, buyers, nops = 5, 10, 60
			var script []walOp
			deleted := map[int]bool{}
			for i := 0; i < nops; i++ {
				o := walOp{sess: r.Intn(fleet)}
				if deleted[o.sess] {
					o.sess = -1 // becomes a no-op below
				}
				switch p := r.Float64(); {
				case p < 0.85:
					o.kind = 0
					o.event = online.Event{Arrive: []int{r.Intn(buyers)}, Depart: []int{r.Intn(buyers)}}
					if r.Float64() < 0.2 {
						o.event.ChannelDown = []int{r.Intn(3)}
						o.event.ChannelUp = nil
					}
				case p < 0.95:
					o.kind = 1
				default:
					o.kind = 2
					if o.sess >= 0 {
						deleted[o.sess] = true
					}
				}
				script = append(script, o)
			}
			// Restart after roughly a third and two thirds of the script.
			restarts := map[int]bool{nops / 3: true, 2 * nops / 3: true}

			dir := t.TempDir()
			cfg := durableConfig(dir, 2)
			cfg.CheckpointEvery = 13 // force mid-run rotations too
			dst := mustStore(t, cfg)
			ref := mustStore(t, Config{Shards: 2})
			defer ref.Close()
			ctx := context.Background()

			ids := make([]string, fleet)
			for k := 0; k < fleet; k++ {
				m, err := market.Generate(market.Config{Sellers: 3, Buyers: buyers, Seed: seed*100 + int64(k)})
				if err != nil {
					t.Fatal(err)
				}
				idD, _, err := dst.Create(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				idR, _, err := ref.Create(ctx, m)
				if err != nil {
					t.Fatal(err)
				}
				if idD != idR {
					t.Fatalf("id divergence at create %d: %s vs %s", k, idD, idR)
				}
				ids[k] = idD
			}

			for i, o := range script {
				if restarts[i] {
					dst.Close()
					dst = mustStore(t, durableConfigLike(cfg))
					if got, want := snapshotAll(t, dst), snapshotAll(t, ref); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: state after restart differs from reference:\n got %+v\nwant %+v", i, got, want)
					}
				}
				if o.sess < 0 {
					continue
				}
				id := ids[o.sess]
				switch o.kind {
				case 0:
					sD, errD := dst.Step(ctx, id, o.event)
					sR, errR := ref.Step(ctx, id, o.event)
					if (errD == nil) != (errR == nil) {
						t.Fatalf("op %d: step err divergence: %v vs %v", i, errD, errR)
					}
					if sD != sR {
						t.Fatalf("op %d: step stats divergence: %+v vs %+v", i, sD, sR)
					}
				case 1:
					wD, aD, errD := dst.Rebuild(ctx, id, true)
					wR, aR, errR := ref.Rebuild(ctx, id, true)
					if errD != nil || errR != nil || wD != wR || aD != aR {
						t.Fatalf("op %d: rebuild divergence: (%v,%v,%v) vs (%v,%v,%v)", i, wD, aD, errD, wR, aR, errR)
					}
				case 2:
					if errD, errR := dst.Delete(ctx, id), ref.Delete(ctx, id); errD != nil || errR != nil {
						t.Fatalf("op %d: delete: %v vs %v", i, errD, errR)
					}
				}
			}
			// One final restart at the very end.
			dst.Close()
			dst = mustStore(t, durableConfigLike(cfg))
			defer dst.Close()
			if got, want := snapshotAll(t, dst), snapshotAll(t, ref); !reflect.DeepEqual(got, want) {
				t.Fatalf("final state differs from reference:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// durableConfigLike rebuilds a config with a fresh registry (counters from a
// closed store must not leak into the next one's assertions).
func durableConfigLike(cfg Config) Config {
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// FuzzWALReplay feeds arbitrary bytes to the store's recovery path as a
// shard log. Whatever the bytes: recovery must never panic, must either
// refuse cleanly or come up with internally consistent sessions, repair mode
// must always come up, and recovery must be deterministic — recovering the
// recovered state again is the identity.
func FuzzWALReplay(f *testing.F) {
	// Seed with a genuine log image produced by a real durable store.
	seedDir := f.TempDir()
	cfg := Config{Shards: 1, DataDir: seedDir}
	st, err := NewStore(cfg)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	id, _, err := st.Create(ctx, m)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range []online.Event{
		{Arrive: []int{0, 1, 2}},
		{Depart: []int{1}},
		{Move: []online.BuyerMove{{Buyer: 0, To: geom.Point{X: 5, Y: 5}}, {Buyer: 4, To: geom.Point{X: 0.5, Y: 9}}}},
		{ChannelDown: []int{0}},
	} {
		if _, err := st.Step(ctx, id, ev); err != nil {
			f.Fatal(err)
		}
	}
	logs, _ := filepath.Glob(filepath.Join(seedDir, "shard-000", "wal-*.log"))
	if len(logs) != 1 {
		f.Fatalf("seed store has %d live logs", len(logs))
	}
	genuine, err := os.ReadFile(logs[0])
	if err != nil {
		f.Fatal(err)
	}
	st.Close()
	genuine = genuine[8:] // strip the magic; the fuzz target re-adds it
	f.Add(genuine)
	f.Add(genuine[:len(genuine)/2])
	mutated := append([]byte(nil), genuine...)
	mutated[len(mutated)/3] ^= 0x20
	f.Add(mutated)
	f.Add([]byte{})
	// A step for a session that was never created: replay must reject it.
	f.Add(wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: 1, Body: []byte(`{"id":"m00000099","event":{"arrive":[0]}}`)}))
	// v2 move bodies that the codec accepts but the engine must reject on
	// replay: an out-of-range buyer index and a NaN coordinate. Both framed
	// as well-formed records so the failure happens at apply time.
	f.Add(wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: 1, Body: eventlog.Step{
		ID:    "m00000001",
		Event: online.Event{Move: []online.BuyerMove{{Buyer: 99, To: geom.Point{X: 1, Y: 1}}}},
	}.Encode()}))
	f.Add(wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: 1, Body: []byte(`{"id":"m00000001","event":{"move":[{"buyer":0,"to":{"x":null,"y":1e999}}]}}`)}))
	// A ragged v2 body: truncated mid-move, must be classified as corruption.
	moved := eventlog.Step{ID: "m00000001", Event: online.Event{
		Move: []online.BuyerMove{{Buyer: 2, To: geom.Point{X: 3, Y: 4}}},
	}}.Encode()
	f.Add(wal.AppendRecord(nil, wal.Record{Type: wal.TypeStep, LSN: 1, Body: moved[:len(moved)-5]}))

	f.Fuzz(func(t *testing.T, logBytes []byte) {
		dir := t.TempDir()
		shardDir := filepath.Join(dir, "shard-000")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			t.Fatal(err)
		}
		meta, _ := json.Marshal(metaFile{Format: 1, Shards: 1})
		if err := os.WriteFile(filepath.Join(dir, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		logData := append(append([]byte{}, wal.Magic[:]...), logBytes...)
		if err := os.WriteFile(filepath.Join(shardDir, "wal-0000000000000001.log"), logData, 0o644); err != nil {
			t.Fatal(err)
		}

		// Strict recovery: a clean refusal or a consistent store.
		st, err := NewStore(Config{Shards: 1, DataDir: dir})
		if err == nil {
			checkConsistent(t, st)
			st.Close()
			return
		}

		// Repair recovery over the same (pristine) image must always come up:
		// the post-recovery checkpoint above never ran, because NewStore
		// failed before returning... but it may have rewritten files, so
		// rebuild the image from scratch.
		dir2 := t.TempDir()
		shardDir2 := filepath.Join(dir2, "shard-000")
		if err := os.MkdirAll(shardDir2, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir2, metaName), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(shardDir2, "wal-0000000000000001.log"), logData, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := NewStore(Config{Shards: 1, DataDir: dir2, WALRepair: true})
		if err != nil {
			t.Fatalf("repair mode refused a log image: %v", err)
		}
		checkConsistent(t, st2)
		before := storeState(t, st2)
		st2.Close()

		// Determinism: recovering the repaired store's checkpoint again is
		// the identity.
		st3, err := NewStore(Config{Shards: 1, DataDir: dir2})
		if err != nil {
			t.Fatalf("re-recovery of a repaired dir failed: %v", err)
		}
		if after := storeState(t, st3); !reflect.DeepEqual(before, after) {
			t.Fatalf("re-recovery changed state:\nbefore %+v\nafter  %+v", before, after)
		}
		st3.Close()
	})
}

func storeState(t *testing.T, st *Store) map[string]online.Snapshot {
	t.Helper()
	ctx := context.Background()
	ids, err := st.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]online.Snapshot, len(ids))
	for _, id := range ids {
		snap, err := st.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = snap
	}
	return out
}

// checkConsistent asserts every recovered session is whole: its snapshot's
// aggregates agree with its contents and it still accepts events — never a
// half-applied session.
func checkConsistent(t *testing.T, st *Store) {
	t.Helper()
	ctx := context.Background()
	for id, snap := range storeState(t, st) {
		if snap.Matched > snap.Active || len(snap.ActiveBuyers) != snap.Active {
			t.Fatalf("session %s inconsistent: %+v", id, snap)
		}
		matched := 0
		for _, ch := range snap.Assignment {
			if ch != market.Unmatched {
				matched++
			}
		}
		if matched != snap.Matched {
			t.Fatalf("session %s: assignment says %d matched, snapshot says %d", id, matched, snap.Matched)
		}
		if _, err := st.Step(ctx, id, online.Event{}); err != nil {
			t.Fatalf("session %s rejects an empty event after recovery: %v", id, err)
		}
	}
}
