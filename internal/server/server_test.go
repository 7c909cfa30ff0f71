package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/trace"
)

func testMarket(t *testing.T, sellers, buyers int, seed int64) *market.Market {
	t.Helper()
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newTestServer builds a server over an httptest listener and returns a
// tiny client for it. Drain runs via t.Cleanup after the listener stops.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp
}

func TestSessionLifecycleHTTP(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Shards: 2, Metrics: reg})
	m := testMarket(t, 3, 10, 1)

	var created CreateResponse
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	if created.ID == "" || created.Buyers != m.N() || created.Channels != m.M() {
		t.Fatalf("create response %+v", created)
	}

	var stats online.StepStats
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events",
		online.Event{Arrive: []int{0, 1, 2, 3}}, &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if stats.Arrived != 4 || stats.Welfare <= 0 {
		t.Fatalf("step stats %+v", stats)
	}

	var got CreateResponse
	resp = doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: HTTP %d", resp.StatusCode)
	}
	if got.Active != 4 || got.Steps != 1 || got.Welfare != stats.Welfare {
		t.Fatalf("snapshot %+v vs step %+v", got, stats)
	}
	if len(got.Assignment) != m.N() {
		t.Fatalf("assignment length %d, want %d", len(got.Assignment), m.N())
	}

	var rebuilt RebuildResponse
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/rebuild",
		RebuildRequest{}, &rebuilt)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: HTTP %d", resp.StatusCode)
	}
	if rebuilt.Welfare < stats.Welfare-1e-9 {
		t.Fatalf("rebuild welfare %v dropped below incremental %v", rebuilt.Welfare, stats.Welfare)
	}

	var list ListResponse
	resp = doJSON(t, "GET", ts.URL+"/v1/sessions", nil, &list)
	if resp.StatusCode != http.StatusOK || list.Count != 1 || list.Sessions[0] != created.ID {
		t.Fatalf("list: HTTP %d %+v", resp.StatusCode, list)
	}

	resp = doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}
	resp = doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: HTTP %d, want 404", resp.StatusCode)
	}
	if v := reg.GaugeValue("server.sessions"); v != 0 {
		t.Fatalf("server.sessions gauge %d after delete, want 0", v)
	}
	if reg.CounterValue("server.events.applied") != 1 {
		t.Fatalf("applied counter %d, want 1", reg.CounterValue("server.events.applied"))
	}
}

func TestBadRequestsAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1})
	m := testMarket(t, 3, 8, 2)

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed create: HTTP %d, want 400", resp.StatusCode)
	}

	// Structurally invalid spec.
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: market.Spec{
		Prices: [][]float64{{1, 2}},
		Edges:  nil, // wrong number of edge lists
	}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: HTTP %d, want 400", resp.StatusCode)
	}

	var created CreateResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created)

	// Out-of-range event → 400, and the session must be untouched.
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events",
		online.Event{Arrive: []int{0, 99}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad event: HTTP %d, want 400", resp.StatusCode)
	}
	var got CreateResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, &got)
	if got.Active != 0 || got.Steps != 0 {
		t.Fatalf("rejected event mutated the session: %+v", got)
	}
	// Same for a batch whose second event moves a buyer on a market without
	// geometry: the batch is rejected before its valid first event applies.
	flat := m.Spec()
	flat.BuyerPos, flat.Ranges = nil, nil
	var flatCreated CreateResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: flat}, &flatCreated); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create without geometry: HTTP %d", resp.StatusCode)
	}
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+flatCreated.ID+"/events", []online.Event{
		{Arrive: []int{0}},
		{Move: []online.BuyerMove{{Buyer: 1, To: geom.Point{X: 1, Y: 1}}}},
	}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("batch with a move on a market without geometry: HTTP %d, want 400", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/"+flatCreated.ID, nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("get: HTTP %d", resp.StatusCode)
	}
	if got.Active != 0 || got.Steps != 0 {
		t.Fatalf("rejected batch mutated the session: %+v", got)
	}

	// Unknown id on every session route.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/sessions/nope"},
		{"DELETE", "/v1/sessions/nope"},
		{"POST", "/v1/sessions/nope/events"},
		{"POST", "/v1/sessions/nope/rebuild"},
	} {
		body := any(nil)
		if probe.method == "POST" {
			body = map[string]any{}
		}
		resp := doJSON(t, probe.method, ts.URL+probe.path, body, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: HTTP %d, want 404", probe.method, probe.path, resp.StatusCode)
		}
	}
}

// blockShards parks every shard of st on an op that waits for the returned
// release func, so tests can fill the queues deterministically.
func blockShards(t *testing.T, st *Store) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	for _, sh := range st.shards {
		started := make(chan struct{})
		go func() {
			_, _ = st.do(nil, sh, func(trace.SpanContext) (any, error) {
				close(started)
				<-gate
				return nil, nil
			})
		}()
		<-started
	}
	return func() { close(gate) }
}

func TestAdmissionControl(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 1, Metrics: reg})
	st := srv.Store()
	m := testMarket(t, 3, 8, 3)

	var created CreateResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created)

	release := blockShards(t, st)
	// Fill the one queue slot.
	filled := make(chan struct{})
	go func() {
		_, _ = st.do(nil, st.shards[0], func(trace.SpanContext) (any, error) { return nil, nil })
		close(filled)
	}()
	// Wait for the filler to be admitted (queue gauge = 1).
	deadline := time.Now().Add(2 * time.Second)
	for reg.GaugeValue("server.shard.0.queue_depth") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("filler op never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events",
		online.Event{Arrive: []int{0}}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded shard: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if reg.CounterValue("server.rejected.queue_full") == 0 {
		t.Error("queue_full counter not incremented")
	}

	release()
	<-filled
	// Back under capacity, the same request succeeds.
	resp = doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events",
		online.Event{Arrive: []int{0}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: HTTP %d, want 200", resp.StatusCode)
	}
}

func TestRequestDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Shards: 1, QueueDepth: 8, RequestTimeout: 50 * time.Millisecond, Metrics: reg})
	m := testMarket(t, 3, 8, 4)

	var created CreateResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created)

	release := blockShards(t, srv.Store())
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions/"+created.ID+"/events",
		online.Event{Arrive: []int{0}}, nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline on blocked shard: HTTP %d, want 504", resp.StatusCode)
	}
	release()

	// The abandoned op must be skipped, not applied: drive another op
	// through (serialized behind the skip) and check the expired counter
	// and that the arrival never landed.
	var got CreateResponse
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+created.ID, nil, &got)
	if got.Active != 0 || got.Steps != 0 {
		t.Fatalf("expired event was applied anyway: %+v", got)
	}
	if reg.CounterValue("server.expired") == 0 {
		t.Error("expired counter not incremented")
	}
}

func TestSessionLimit(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Shards: 1, MaxSessions: 2, Metrics: reg})
	m := testMarket(t, 2, 4, 5)
	for i := 0; i < 2; i++ {
		resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %d: HTTP %d", i, resp.StatusCode)
		}
	}
	resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over limit: HTTP %d, want 429", resp.StatusCode)
	}
	if reg.CounterValue("server.rejected.session_limit") != 1 {
		t.Error("session_limit counter not incremented")
	}

	// Concurrent creates that hash to different shards must not overshoot
	// the cap. With every shard parked, all of them are queued before any
	// runs, so a cap checked at admission would let every one through.
	reg = obs.NewRegistry()
	st, err := NewStore(Config{Shards: 4, MaxSessions: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	release := blockShards(t, st)
	const creates = 32
	errs := make(chan error, creates)
	for k := 0; k < creates; k++ {
		go func() {
			_, _, err := st.Create(nil, m)
			errs <- err
		}()
	}
	deadline := time.Now().Add(2 * time.Second)
	for queued := 0; queued != creates; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d creates queued", queued, creates)
		}
		time.Sleep(time.Millisecond)
		queued = 0
		for _, sh := range st.shards {
			queued += len(sh.ops)
		}
	}
	release()
	created, limited := 0, 0
	for k := 0; k < creates; k++ {
		switch err := <-errs; {
		case err == nil:
			created++
		case errors.Is(err, ErrSessionLimit):
			limited++
		default:
			t.Fatalf("concurrent create: %v", err)
		}
	}
	if created != 2 || limited != creates-2 || st.Len() != 2 {
		t.Fatalf("%d concurrent creates on 4 shards with MaxSessions 2: %d created, %d limited, %d live",
			creates, created, limited, st.Len())
	}
	if got := reg.CounterValue("server.rejected.session_limit"); got != creates-2 {
		t.Errorf("session_limit counter %d, want %d", got, creates-2)
	}
	if got := reg.GaugeValue("server.sessions"); got != 2 {
		t.Errorf("server.sessions gauge %d, want 2", got)
	}
}

func TestDrainFlushesQueue(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := NewStore(Config{Shards: 1, QueueDepth: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := testMarket(t, 3, 8, 6)
	id, _, err := st.Create(nil, m)
	if err != nil {
		t.Fatal(err)
	}

	release := blockShards(t, st)
	// Queue three steps behind the blocker, then drain.
	const queued = 3
	results := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func(j int) {
			_, err := st.Step(nil, id, online.Event{Arrive: []int{j}})
			results <- err
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.GaugeValue("server.shard.0.queue_depth") != queued {
		if time.Now().After(deadline) {
			t.Fatalf("steps never queued (depth %d)", reg.GaugeValue("server.shard.0.queue_depth"))
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		release()
		st.Close()
		close(closed)
	}()
	for i := 0; i < queued; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued step lost in drain: %v", err)
		}
	}
	<-closed

	if got := reg.CounterValue("server.events.applied"); got != queued {
		t.Fatalf("applied %d events, want %d: drain dropped admitted work", got, queued)
	}
	// Draining store refuses new work.
	if _, err := st.Step(nil, id, online.Event{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("step after Close: %v, want ErrDraining", err)
	}
	if reg.CounterValue("server.rejected.draining") == 0 {
		t.Error("draining counter not incremented")
	}
	st.Close() // idempotent
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Shards: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}

	var snap obs.Snapshot
	resp, err = http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics decode: %v", err)
	}

	ts.Close()
	srv.Drain()
	// After drain the store refuses work; healthz reports draining.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, want 503", rec.Code)
	}
}

func TestHTTPServerLifecycle(t *testing.T) {
	hs, err := ListenAndServe("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	if err != nil {
		t.Fatal(err)
	}
	addr := hs.Addr().String()
	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	// The port must be released.
	hs2, err := ListenAndServe(addr, http.NotFoundHandler())
	if err != nil {
		t.Fatalf("port not released after Shutdown: %v", err)
	}
	_ = hs2.Shutdown(ctx)

	// A bad address surfaces the listen error synchronously.
	if _, err := ListenAndServe("256.0.0.1:99999", http.NotFoundHandler()); err == nil {
		t.Fatal("bogus address should fail to listen")
	}
}
