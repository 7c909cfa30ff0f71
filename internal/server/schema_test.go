package server

// Tests for the unified event schema and point-in-time forks: the committed
// v0-generation data dir must recover bit-for-bit under the bilingual
// decoders, an event batch must mean the same thing on every surface it
// crosses (HTTP JSON view, canonical binary wire, WAL replay), and a fork at
// any durable prefix must equal the session the uninterrupted run had at
// that point — continuing with bit-identical StepStats.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"specmatch/internal/eventlog"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
)

// TestV0DataDirRecovery recovers the committed pre-schema data dir — v0 JSON
// record bodies and checkpoints, written by the server as it was before the
// unified schema existed, including a torn tail on shard-001 — and compares
// every session against the state snapshot pinned next to it. This is the
// backward-compatibility contract: a v1 binary can be pointed at a v0 data
// dir and recovers exactly what the v0 binary would have.
func TestV0DataDirRecovery(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, "testdata/v0-datadir", dir)

	var want map[string]online.Snapshot
	data, err := os.ReadFile("testdata/v0-expected.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	st := mustStore(t, durableConfig(dir, 2))
	got := snapshotAll(t, st)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered v0 state differs from pinned expectation:\n got %+v\nwant %+v", got, want)
	}
	// The fixture's shard-001 log ends in a torn frame; recovery must have
	// classified it as such, not as corruption.
	if st.Recovery.TornRecords == 0 {
		t.Error("fixture's torn tail was not observed during recovery")
	}

	// The upgraded store keeps working in place: new mutations (v1 bodies in
	// the same logs) land on recovered v0 state and survive another restart.
	ctx := context.Background()
	if _, err := st.Step(ctx, "m00000001", online.Event{Arrive: []int{4}}); err != nil {
		t.Fatal(err)
	}
	want2 := snapshotAll(t, st)
	st.Close()
	st2 := mustStore(t, durableConfig(dir, 2))
	defer st2.Close()
	if got2 := snapshotAll(t, st2); !reflect.DeepEqual(got2, want2) {
		t.Fatalf("mixed-generation restart diverged:\n got %+v\nwant %+v", got2, want2)
	}
}

// TestCrossCodecEquivalence drives the same event batches down two paths: a
// plain in-memory store applying them directly, and the full codec gauntlet —
// the HTTP JSON view, re-decoded, re-encoded as the canonical binary wire
// format, decoded again, applied to a durable store, and finally replayed
// from the WAL after a restart. Both stores must end reflect.DeepEqual-equal,
// and every per-event StepStats along the way must match exactly.
func TestCrossCodecEquivalence(t *testing.T) {
	dir := t.TempDir()
	dst := mustStore(t, durableConfig(dir, 2))
	ref := mustStore(t, Config{Shards: 2})
	defer ref.Close()
	ctx := context.Background()

	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	idD, _, err := dst.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	idR, _, err := ref.Create(ctx, m)
	if err != nil || idD != idR {
		t.Fatalf("create: %v (ids %s vs %s)", err, idD, idR)
	}

	trace := online.SyntheticChurn(m, 33, 40)
	for i := 0; i < len(trace); i += 4 {
		batch := trace[i:min(i+4, len(trace))]

		// JSON view → events → canonical binary → events: what a client
		// posting JSON and a client posting binary both reduce to.
		jsonBody, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON []online.Event
		if err := json.Unmarshal(jsonBody, &viaJSON); err != nil {
			t.Fatal(err)
		}
		viaWire, err := eventlog.DecodeBatch(eventlog.EncodeBatch(viaJSON))
		if err != nil {
			t.Fatal(err)
		}

		gotRes, err := dst.StepBatch(ctx, idD, viaWire)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := ref.StepBatch(ctx, idR, batch)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantRes {
			if gotRes[k].Stats != wantRes[k].Stats {
				t.Fatalf("batch %d event %d: stats diverged across codecs: %+v vs %+v",
					i/4, k, gotRes[k].Stats, wantRes[k].Stats)
			}
		}
	}

	// The durable store's state came through every codec; the reference's
	// through none. They must be identical now and after a WAL replay.
	want := snapshotAll(t, ref)
	if got := snapshotAll(t, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-codec state diverged before restart:\n got %+v\nwant %+v", got, want)
	}
	dst.Close()
	dst = mustStore(t, durableConfig(dir, 2))
	defer dst.Close()
	if got := snapshotAll(t, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("cross-codec state diverged after WAL replay:\n got %+v\nwant %+v", got, want)
	}
}

// TestForkEquivalenceEveryPrefix forks one session at every LSN of its
// shard's durable history and checks each child against an uninterrupted
// reference replayed to the same prefix — then steps it forward through the
// rest of the trace, demanding bit-identical StepStats the whole way.
// Together the two halves say a fork is the session as it was, not merely
// something similar to it. A sibling session's steps interleave with the
// source's on the one shard, so the fork must skip records that are not its
// source's; every child is itself forked (replaying its wal.TypeFork record)
// and the grandchild held to the same checks. The checkpointed case cuts a
// checkpoint mid-history: forks at or above it restore the source from the
// checkpoint before replaying the log, and forks below it are refused with
// ErrLSNHorizon.
func TestForkEquivalenceEveryPrefix(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ckptEvery int
		wantCkpt  uint64 // the checkpoint LSN the setup's 38 records leave
	}{
		{name: "log", ckptEvery: -1, wantCkpt: 0},
		{name: "checkpointed", ckptEvery: 32, wantCkpt: 32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := durableConfig(t.TempDir(), 1) // one shard: every record shares one LSN sequence
			cfg.CheckpointEvery = tc.ckptEvery
			st := mustStore(t, cfg)
			defer st.Close()
			testForkEveryPrefix(t, st, tc.wantCkpt)
		})
	}
}

func testForkEveryPrefix(t *testing.T, st *Store, wantCkpt uint64) {
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sibM, err := market.Generate(market.Config{Sellers: 2, Buyers: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Create(ctx, m) // LSN 1
	if err != nil {
		t.Fatal(err)
	}
	sib, _, err := st.Create(ctx, sibM) // LSN 2
	if err != nil {
		t.Fatal(err)
	}
	// Mobile churn: the trace carries Move events, so every fork must come
	// back with the session's post-move geometry and graphs (the spec is
	// taken from the session's own market), not the create-time deployment.
	trace := online.SyntheticMobileChurn(m, 17, 24)
	sibTrace := online.SyntheticChurn(sibM, 23, len(trace)/2)
	// applied[lsn] is how many of the source's events the shard had logged
	// through lsn; the sibling steps after every other source event.
	applied := []int{0, 0, 0} // LSNs 0..2: nothing, the two creates
	step := func(sid string, ev online.Event) {
		t.Helper()
		res, err := st.StepBatch(ctx, sid, []online.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].LSN != uint64(len(applied)) {
			t.Fatalf("step logged at lsn %d, want %d", res[0].LSN, len(applied))
		}
	}
	for k, ev := range trace {
		step(id, ev)
		applied = append(applied, k+1)
		if k%2 == 1 {
			step(sib, sibTrace[k/2])
			applied = append(applied, k+1)
		}
	}
	tail := uint64(len(applied) - 1)
	horizon := st.ShardStatuses()[0].CheckpointLSN
	if horizon != wantCkpt {
		t.Fatalf("setup left the checkpoint at lsn %d, want %d", horizon, wantCkpt)
	}

	// Pass one takes every fork (and a fork of each child) before anything
	// is stepped forward, so no checkpoint lands under the later forks: in
	// the checkpointed case it logs 2 records for each of the 7 forks at
	// LSN 32..38, and 6 + 14 records stay under CheckpointEvery.
	type forked struct {
		at           uint64
		child, grand ForkResult
	}
	var forks []forked
	for at := uint64(1); at <= tail; at++ {
		res, err := st.Fork(ctx, id, at)
		if at < horizon {
			if !errors.Is(err, ErrLSNHorizon) {
				t.Fatalf("fork at lsn %d below the checkpoint at %d: got %v, want ErrLSNHorizon", at, horizon, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fork at lsn %d: %v", at, err)
		}
		if res.AtLSN != at || res.From != id {
			t.Fatalf("fork at lsn %d reported at_lsn=%d from=%s", at, res.AtLSN, res.From)
		}
		grand, err := st.Fork(ctx, res.ID, 0)
		if err != nil {
			t.Fatalf("fork of the lsn-%d fork: %v", at, err)
		}
		if grand.From != res.ID || !reflect.DeepEqual(grand.Snapshot, res.Snapshot) {
			t.Fatalf("fork of the lsn-%d fork differs from its parent:\n got %+v\nwant %+v", at, grand.Snapshot, res.Snapshot)
		}
		forks = append(forks, forked{at: at, child: res, grand: grand})
	}
	if got := st.ShardStatuses()[0].CheckpointLSN; got != horizon {
		t.Fatalf("checkpoint moved from lsn %d to %d while forking", horizon, got)
	}
	if len(forks) == 0 {
		t.Fatal("no fork landed at or above the checkpoint")
	}

	for _, f := range forks {
		prefix := applied[f.at]

		// Reference: a fresh session stepped through the same prefix.
		refM, err := market.FromSpec(m.Spec())
		if err != nil {
			t.Fatal(err)
		}
		refS, err := online.NewSession(refM, st.sessionOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range trace[:prefix] {
			if _, err := refS.Step(ev); err != nil {
				t.Fatal(err)
			}
		}
		if want := refS.Snapshot(); !reflect.DeepEqual(f.child.Snapshot, want) {
			t.Fatalf("fork at lsn %d: snapshot differs from reference prefix:\n got %+v\nwant %+v", f.at, f.child.Snapshot, want)
		}

		// Forward equivalence: the fork and its own fork continue exactly as
		// the original did.
		for k, ev := range trace[prefix:] {
			wantStats, err := refS.Step(ev)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []string{f.child.ID, f.grand.ID} {
				gotStats, err := st.Step(ctx, c, ev)
				if err != nil {
					t.Fatalf("fork %s at lsn %d: stepping: %v", c, f.at, err)
				}
				if gotStats != wantStats {
					t.Fatalf("fork %s at lsn %d, replayed step %d: stats diverged: %+v vs %+v", c, f.at, k, gotStats, wantStats)
				}
			}
		}
		orig, err := st.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []string{f.child.ID, f.grand.ID} {
			final, err := st.Get(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(final, orig) {
				t.Fatalf("fork %s at lsn %d fully replayed differs from original:\n got %+v\nwant %+v", c, f.at, final, orig)
			}
			if err := st.Delete(ctx, c); err != nil { // keep the fleet small
				t.Fatal(err)
			}
		}
	}

	// Horizon errors: past the tail (the shard's counter moved past `tail`
	// while the children above were stepped, so probe far beyond any of it),
	// and before the session existed.
	if _, err := st.Fork(ctx, id, uint64(1)<<60); !errors.Is(err, ErrLSNHorizon) {
		t.Errorf("fork past tail: got %v, want ErrLSNHorizon", err)
	}
	if _, err := st.Fork(ctx, "nope", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("fork of unknown id: got %v, want ErrNotFound", err)
	}
}

// Forking requires durability by design: there is no log to cut a prefix
// from in a memory-only store.
func TestForkRequiresDurability(t *testing.T) {
	st := mustStore(t, Config{Shards: 1})
	defer st.Close()
	ctx := context.Background()
	m, err := market.Generate(market.Config{Sellers: 2, Buyers: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Fork(ctx, id, 0); !errors.Is(err, ErrNotDurable) {
		t.Errorf("fork on in-memory store: got %v, want ErrNotDurable", err)
	}
}

// TestForkDuringConcurrentSteps races tail forks against a stream of
// concurrent steps. Every fork must land on some consistent prefix: its
// snapshot must equal a reference session replayed through exactly the
// events with LSN ≤ the fork point, for whatever interleaving the shard
// serialized. StepBatch's reported LSNs provide the ground-truth order.
func TestForkDuringConcurrentSteps(t *testing.T) {
	dir := t.TempDir()
	st := mustStore(t, durableConfig(dir, 1))
	defer st.Close()
	ctx := context.Background()

	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := st.Create(ctx, m)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	byLSN := map[uint64]online.Event{}
	var forks []ForkResult

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			events := online.SyntheticChurn(m, int64(100+w), 30)
			for _, ev := range events {
				res, err := st.StepBatch(ctx, id, []online.Event{ev})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				mu.Lock()
				byLSN[res[0].LSN] = ev
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			res, err := st.Fork(ctx, id, 0)
			if err != nil {
				t.Errorf("fork %d: %v", i, err)
				return
			}
			mu.Lock()
			forks = append(forks, res)
			mu.Unlock()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, fr := range forks {
		refM, err := market.FromSpec(m.Spec())
		if err != nil {
			t.Fatal(err)
		}
		refS, err := online.NewSession(refM, st.sessionOptions())
		if err != nil {
			t.Fatal(err)
		}
		// LSNs missing from the ledger are the forks' own records (they share
		// the single shard); the parent's history is exactly the recorded
		// steps, replayed in LSN order.
		lsns := make([]uint64, 0, len(byLSN))
		for lsn := range byLSN {
			if lsn <= fr.AtLSN {
				lsns = append(lsns, lsn)
			}
		}
		sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
		for _, lsn := range lsns {
			if _, err := refS.Step(byLSN[lsn]); err != nil {
				t.Fatal(err)
			}
		}
		if want := refS.Snapshot(); !reflect.DeepEqual(fr.Snapshot, want) {
			t.Fatalf("fork %s at lsn %d is not the prefix state:\n got %+v\nwant %+v", fr.ID, fr.AtLSN, fr.Snapshot, want)
		}
	}
}

// TestEventsWireFormatsHTTP posts the same batch twice — once as the JSON
// array view, once as the canonical binary wire format — to two sessions of
// the same market, and demands identical per-event results and end states.
// It also exercises the fork route's status mapping: 201 on success, 409 for
// an out-of-window lsn, 501 without a data dir.
func TestEventsWireFormatsHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, Metrics: obs.NewRegistry()})
	m := testMarket(t, 3, 10, 4)

	var a, b CreateResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &a); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create a: HTTP %d", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &b); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: HTTP %d", resp.StatusCode)
	}

	batch := []online.Event{
		{Arrive: []int{0, 1, 2, 3}},
		{ChannelDown: []int{1}},
		{Depart: []int{2}, Arrive: []int{5}},
	}
	var viaJSON BatchResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+a.ID+"/events", batch, &viaJSON); resp.StatusCode != http.StatusOK {
		t.Fatalf("json batch: HTTP %d", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/v1/sessions/"+b.ID+"/events", eventlog.ContentType,
		bytes.NewReader(eventlog.EncodeBatch(batch)))
	if err != nil {
		t.Fatal(err)
	}
	var viaWire BatchResponse
	decErr := json.NewDecoder(resp.Body).Decode(&viaWire)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil {
		t.Fatalf("binary batch: HTTP %d, decode err %v", resp.StatusCode, decErr)
	}

	if viaJSON.Count != len(batch) || viaWire.Count != len(batch) {
		t.Fatalf("batch counts: json %d, wire %d, want %d", viaJSON.Count, viaWire.Count, len(batch))
	}
	for k := range batch {
		if viaJSON.Results[k].StepStats != viaWire.Results[k].StepStats {
			t.Fatalf("event %d: stats differ across wire formats: %+v vs %+v",
				k, viaJSON.Results[k].StepStats, viaWire.Results[k].StepStats)
		}
	}
	var sa, sb CreateResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+a.ID, nil, &sa)
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+b.ID, nil, &sb)
	sa.ID, sb.ID = "", ""
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("end states differ across wire formats:\n json %+v\n wire %+v", sa, sb)
	}

	// A corrupt binary batch is a 400, atomically rejected.
	bad := eventlog.EncodeBatch(batch)
	bad[len(bad)-2] ^= 0x10
	resp, err = http.Post(ts.URL+"/v1/sessions/"+a.ID+"/events", eventlog.ContentType, bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt binary batch: HTTP %d, want 400", resp.StatusCode)
	}

	// Forking an in-memory server is 501 Not Implemented.
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+a.ID+"/fork", nil, nil); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("fork without data dir: HTTP %d, want 501", resp.StatusCode)
	}
}

// TestForkHTTP drives the fork route on a durable server capped at two
// sessions: 201 with the child's state, then, with the store full, 404 for
// unknown sessions, 409 outside the retained window, 400 for an unparsable
// lsn and 429 for a fork that would exceed the cap.
func TestForkHTTP(t *testing.T) {
	cfg := durableConfig(t.TempDir(), 2)
	cfg.MaxSessions = 2
	_, ts := newTestServer(t, cfg)
	m := testMarket(t, 3, 10, 4)

	var created CreateResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created)
	var stats online.StepStats
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events", online.Event{Arrive: []int{0, 1, 2}}, &stats)

	var fork ForkResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/fork", nil, &fork)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("fork: HTTP %d", resp.StatusCode)
	}
	if fork.From != created.ID || fork.ID == created.ID || fork.Snapshot.Active != 3 {
		t.Fatalf("fork response %+v", fork)
	}
	var child CreateResponse
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/"+fork.ID, nil, &child); resp.StatusCode != http.StatusOK {
		t.Fatalf("child get: HTTP %d", resp.StatusCode)
	}
	if child.Active != 3 {
		t.Fatalf("child state %+v", child)
	}

	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/nope/fork", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fork of unknown id: HTTP %d, want 404", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/fork?lsn=999999", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("fork past tail: HTTP %d, want 409", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/fork?lsn=banana", nil, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fork with bad lsn: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/fork", nil, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fork on a full store: HTTP %d, want 429", resp.StatusCode)
	}
}
