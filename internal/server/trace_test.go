package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"specmatch/internal/online"
	"specmatch/internal/trace"
)

// TestRequestTraceTree drives one event request through the full stack and
// asserts the acceptance-criteria chain: the http span (parented on the
// client's traceparent, marked remote=1) -> server.shard_op -> online.step
// -> core.dirty (the incremental repair pass) -> core.round -> core.solve,
// with zero orphan spans, and the trace id echoed back as X-Request-Id.
func TestRequestTraceTree(t *testing.T) {
	fl := trace.NewFlight(1 << 14)
	_, ts := newTestServer(t, Config{Shards: 1, Flight: fl})
	m := testMarket(t, 3, 12, 2)

	var created CreateResponse
	if resp := doJSON(t, "POST", ts.URL+"/v1/sessions", CreateRequest{Spec: m.Spec()}, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}

	client := trace.SpanContext{Trace: trace.NewTraceID(), Span: trace.NewSpanID()}
	body, err := json.Marshal(online.Event{Arrive: []int{0, 1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+created.ID+"/events", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", trace.FormatTraceparent(client))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != client.Trace.String() {
		t.Fatalf("X-Request-Id = %q, want the client's trace id %q", got, client.Trace)
	}

	// Reassemble the request's trace from the flight recorder.
	var spans []trace.Span
	byID := make(map[trace.SpanID]trace.Span)
	for _, s := range fl.Snapshot() {
		if s.Trace == client.Trace {
			spans = append(spans, s)
			byID[s.ID] = s
		}
	}
	parentName := func(s trace.Span) string { return byID[s.Parent].Name }
	seen := make(map[string]int)
	for _, s := range spans {
		seen[s.Name]++
		wantParent := map[string]string{
			"http.events":     "",            // parent is the client's remote span
			"server.shard_op": "http.events", // via trace.FromContext on the shard queue
			"online.step":     "server.shard_op",
			"core.dirty":      "online.step",
			"core.round":      "core.dirty",
			"core.solve":      "core.round",
		}[s.Name]
		if wantParent == "" {
			continue
		}
		if got := parentName(s); got != wantParent {
			t.Errorf("%s parent = %q, want %q", s.Name, got, wantParent)
		}
	}
	for _, name := range []string{"http.events", "server.shard_op", "online.step", "core.dirty", "core.round", "core.solve"} {
		if seen[name] == 0 {
			t.Errorf("trace has no %s span (saw %v)", name, seen)
		}
	}
	// The http span's parent is the client's span — absent from the dump by
	// design, which is exactly what remote=1 marks.
	for _, s := range spans {
		if s.Name != "http.events" {
			continue
		}
		if s.Parent != client.Span {
			t.Errorf("http.events parent = %s, want the client span %s", s.Parent, client.Span)
		}
		if !hasToken(s.Attrs, "remote=1") {
			t.Errorf("http.events attrs %q missing remote=1", s.Attrs)
		}
		if !hasToken(s.Attrs, "status=200") {
			t.Errorf("http.events attrs %q missing status=200", s.Attrs)
		}
	}
	// Zero orphans: every other span's parent must be in the dump.
	for _, s := range spans {
		if s.Name == "http.events" || s.Parent.IsZero() {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			t.Errorf("orphan span %s (parent %s not in dump)", s.Name, s.Parent)
		}
	}
}

// TestRouteSpansWithoutTraceparent: a bare request still records a complete
// http span under a fresh trace, and still gets an X-Request-Id.
func TestRouteSpansWithoutTraceparent(t *testing.T) {
	fl := trace.NewFlight(1 << 12)
	_, ts := newTestServer(t, Config{Shards: 1, Flight: fl})
	resp := doJSON(t, "GET", ts.URL+"/v1/sessions", nil, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id on an untraced request")
	}
	found := false
	for _, s := range fl.Snapshot() {
		if s.Name == "http.list" && s.Trace.String() == id {
			found = true
			if !s.Parent.IsZero() {
				t.Errorf("headerless request must root a new trace, parent = %s", s.Parent)
			}
			if hasToken(s.Attrs, "remote=1") {
				t.Errorf("headerless request must not claim a remote parent: %q", s.Attrs)
			}
		}
	}
	if !found {
		t.Fatalf("no http.list span with trace %s", id)
	}
}

// TestOnServerErrorHook: a 5xx must fire the hook (specserved's rate-limited
// dump); a 2xx/4xx must not.
func TestOnServerErrorHook(t *testing.T) {
	fired := 0
	_, ts := newTestServer(t, Config{Shards: 1, OnServerError: func() { fired++ }})
	// 404 is a client error: no hook.
	if resp := doJSON(t, "GET", ts.URL+"/v1/sessions/nope", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HTTP %d, want 404", resp.StatusCode)
	}
	if fired != 0 {
		t.Fatalf("hook fired on a 404")
	}
}

// hasToken reports whether the space-separated attrs string contains tok.
func hasToken(attrs, tok string) bool {
	for i := 0; i+len(tok) <= len(attrs); i++ {
		if attrs[i:i+len(tok)] == tok &&
			(i == 0 || attrs[i-1] == ' ') &&
			(i+len(tok) == len(attrs) || attrs[i+len(tok)] == ' ') {
			return true
		}
	}
	return false
}
