package trace

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	s := FormatTraceparent(sc)
	got, ok := ParseTraceparent(s)
	if !ok || got != sc {
		t.Fatalf("round trip %q -> (%v, %v), want (%v, true)", s, got, ok, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff is invalid
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01", // non-hex
	}
	for _, s := range bad {
		if sc, ok := ParseTraceparent(s); ok || !sc.IsZero() {
			t.Errorf("ParseTraceparent(%q) = (%v, %v), want rejection", s, sc, ok)
		}
	}
}

func TestNilFlightInert(t *testing.T) {
	var f *Flight
	if f.Enabled() || f.Cap() != 0 || f.Recorded() != 0 || f.Snapshot() != nil {
		t.Error("nil flight must behave as empty")
	}
	h := f.Start(SpanContext{}, "x")
	if h.Active() || !h.Context().IsZero() {
		t.Error("handle from nil flight must be inert")
	}
	h.Annotate("k=v") // must not panic
	h.End()
	h.End() // double End must be safe too
}

func TestStartParenting(t *testing.T) {
	f := NewFlight(16)
	root := f.Start(SpanContext{}, "root")
	if root.Context().IsZero() {
		t.Fatal("root context must be non-zero")
	}
	child := f.Start(root.Context(), "child")
	child.End()
	root.End()
	spans := f.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootSpan, childSpan Span
	for _, s := range spans {
		switch s.Name {
		case "root":
			rootSpan = s
		case "child":
			childSpan = s
		}
	}
	if !rootSpan.Parent.IsZero() {
		t.Errorf("root has parent %v", rootSpan.Parent)
	}
	if childSpan.Trace != rootSpan.Trace {
		t.Errorf("child trace %v != root trace %v", childSpan.Trace, rootSpan.Trace)
	}
	if childSpan.Parent != rootSpan.ID {
		t.Errorf("child parent %v != root id %v", childSpan.Parent, rootSpan.ID)
	}
}

func TestUnendedSpanDiscarded(t *testing.T) {
	f := NewFlight(16)
	_ = f.Start(SpanContext{}, "never-ended")
	if got := len(f.Snapshot()); got != 0 {
		t.Fatalf("un-Ended span leaked into the ring: %d spans", got)
	}
}

func TestAnnotateAppends(t *testing.T) {
	f := NewFlight(16)
	h := f.Start(SpanContext{}, "s")
	h.Annotate("a=1")
	h.Annotate("b=2")
	h.End()
	if attrs := f.Snapshot()[0].Attrs; attrs != "a=1 b=2" {
		t.Fatalf("attrs = %q, want %q", attrs, "a=1 b=2")
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlight(16) // also exercises the minimum-capacity floor
	if f.Cap() != 16 {
		t.Fatalf("Cap = %d, want 16", f.Cap())
	}
	base := time.Now()
	for k := 0; k < 40; k++ {
		f.Record(Span{
			Trace: NewTraceID(), ID: NewSpanID(), Name: "s",
			Start: base.Add(time.Duration(k) * time.Millisecond),
			End:   base.Add(time.Duration(k)*time.Millisecond + time.Microsecond),
		})
	}
	if f.Recorded() != 40 {
		t.Errorf("Recorded = %d, want 40", f.Recorded())
	}
	if f.Overwritten() != 24 {
		t.Errorf("Overwritten = %d, want 24", f.Overwritten())
	}
	spans := f.Snapshot()
	if len(spans) != 16 {
		t.Fatalf("Snapshot kept %d spans, want 16", len(spans))
	}
	// The ring must retain exactly the most recent window, in start order.
	for k, s := range spans {
		want := base.Add(time.Duration(24+k) * time.Millisecond)
		if !s.Start.Equal(want) {
			t.Fatalf("span %d starts at %v, want %v (oldest not overwritten first)", k, s.Start, want)
		}
	}
}

// TestFlightConcurrent hammers one ring from many goroutines while a reader
// snapshots — the -race run is the real assertion.
func TestFlightConcurrent(t *testing.T) {
	f := NewFlight(64)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range f.Snapshot() {
					if s.Name == "" || s.Trace.IsZero() {
						t.Error("snapshot returned a torn span")
						return
					}
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			root := f.Start(SpanContext{}, "root")
			for k := 0; k < 200; k++ {
				h := f.Start(root.Context(), "child")
				h.Annotate("k=v")
				h.End()
			}
			root.End()
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if f.Recorded() != 8*201 {
		t.Errorf("Recorded = %d, want %d", f.Recorded(), 8*201)
	}
	if got := len(f.Snapshot()); got != 64 {
		t.Errorf("Snapshot kept %d spans, want full ring of 64", got)
	}
}

func TestChromeRoundTrip(t *testing.T) {
	f := NewFlight(16)
	root := f.Start(SpanContext{}, "core.run")
	child := f.Start(root.Context(), "core.round")
	child.Annotate("stage=stage_i round=1")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeFlight(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := f.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("read %d spans, want %d", len(got), len(want))
	}
	for k := range want {
		w, g := want[k], got[k]
		if g.Trace != w.Trace || g.ID != w.ID || g.Parent != w.Parent || g.Name != w.Name || g.Attrs != w.Attrs {
			t.Errorf("span %d identity mismatch: got %+v want %+v", k, g, w)
		}
		// Nanosecond-exact timestamps survive via the decimal-string args.
		if g.Start.UnixNano() != w.Start.UnixNano() || g.Duration() != w.Duration() {
			t.Errorf("span %d timing mismatch: got %v+%v want %v+%v",
				k, g.Start.UnixNano(), g.Duration(), w.Start.UnixNano(), w.Duration())
		}
	}
}

func TestHandlerServesDump(t *testing.T) {
	f := NewFlight(16)
	for k := 0; k < 5; k++ {
		h := f.Start(SpanContext{}, "s")
		h.End()
	}
	rr := httptest.NewRecorder()
	Handler(f).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?n=2", nil))
	if rr.Code != 200 {
		t.Fatalf("HTTP %d", rr.Code)
	}
	spans, err := ReadChrome(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("?n=2 returned %d spans", len(spans))
	}

	rr = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != 200 {
		t.Fatalf("nil flight: HTTP %d", rr.Code)
	}
	if spans, err := ReadChrome(rr.Body); err != nil || len(spans) != 0 {
		t.Fatalf("nil flight dump = (%d spans, %v), want empty", len(spans), err)
	}
}

func TestContextPropagation(t *testing.T) {
	if !FromContext(nil).IsZero() {
		t.Error("FromContext(nil) must be zero")
	}
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	ctx := ContextWith(t.Context(), sc)
	if got := FromContext(ctx); got != sc {
		t.Errorf("FromContext = %v, want %v", got, sc)
	}
}
