package main

import (
	"context"
	"testing"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/online"
	"specmatch/internal/trace"
	"specmatch/internal/wal"
)

func span(parent trace.Span, name string, t0 time.Time, from, to int) trace.Span {
	s := trace.Span{
		Trace: parent.Trace,
		ID:    trace.NewSpanID(),
		Name:  name,
		Start: t0.Add(time.Duration(from) * time.Microsecond),
		End:   t0.Add(time.Duration(to) * time.Microsecond),
	}
	if !parent.ID.IsZero() {
		s.Parent = parent.ID
	}
	return s
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	root := span(trace.Span{Trace: trace.NewTraceID()}, "online.step", t0, 0, 100)
	cases := []struct {
		name     string
		children []trace.Span
		want     time.Duration
	}{
		{"leaf", nil, 100 * time.Microsecond},
		{"one child", []trace.Span{span(root, "core.dirty", t0, 10, 30)}, 80 * time.Microsecond},
		{"overlapping children count once", []trace.Span{
			span(root, "a", t0, 10, 30), span(root, "b", t0, 20, 40),
		}, 70 * time.Microsecond},
		{"disjoint children, unsorted", []trace.Span{
			span(root, "a", t0, 60, 70), span(root, "b", t0, 10, 20),
		}, 80 * time.Microsecond},
		{"child overrunning the parent is clipped", []trace.Span{
			span(root, "a", t0, 90, 150), span(root, "b", t0, -20, 5),
		}, 85 * time.Microsecond},
		{"nested cover", []trace.Span{
			span(root, "a", t0, 10, 90), span(root, "b", t0, 20, 30),
		}, 20 * time.Microsecond},
	}
	for _, c := range cases {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// A synthetic request tree: bench.request → http.events → server.shard_op
// (queued 10µs) → online.step → core.dirty, plus a wal.append that turns
// durable after the shard op ends. The tiles must add up to the client
// latency, leaving only the handler's own overhead unattributed.
func TestRequestAttributionTilesClientLatency(t *testing.T) {
	t0 := time.Unix(2000, 0)
	root := span(trace.Span{Trace: trace.NewTraceID()}, "bench.request", t0, 0, 1000)
	httpSpan := span(root, "http.events", t0, 100, 900)
	op := span(httpSpan, "server.shard_op", t0, 150, 400)
	op.Attrs = "queue_wait_us=10"
	step := span(op, "online.step", t0, 160, 390)
	dirty := span(step, "core.dirty", t0, 170, 380)
	app := span(op, "wal.append", t0, 400, 700)
	spans := []trace.Span{root, httpSpan, op, step, dirty, app}

	ht := newHandlerTimes()
	ht.d[root.Trace] = 820 * time.Microsecond // 20µs of routing around the http span

	sl := analyzeSpans(spans, ht)
	if sl.incomplete != 0 {
		t.Fatalf("complete tree reported incomplete")
	}
	checks := []struct {
		name string
		got  []float64
		want float64
	}{
		{"handler", sl.handler, 820},
		{"transport", sl.transport, 180},
		{"decode", sl.decode, 40}, // http start 100 → enqueue at 150-10
		{"reply", sl.reply, 200},  // durable at 700 → http end 900
		{"queue", sl.queueWait, 10},
		{"wal", sl.walWait, 300},
		{"step self", sl.stepSelf, 20},
		{"dirty", sl.dirty, 210},
	}
	for _, c := range checks {
		if len(c.got) != 1 || c.got[0] != c.want {
			t.Errorf("%s = %v, want [%v]", c.name, c.got, c.want)
		}
	}
	// transport 180 + decode 40 + queue 10 + op 250 + wal wait 300 + reply
	// 200 = 980 of 1000µs.
	if sl.clientNS != 1000_000 || sl.unattributedNS != 20_000 {
		t.Errorf("client %dns unattributed %dns, want 1000000 and 20000", sl.clientNS, sl.unattributedNS)
	}

	// Without the handler timing the request cannot be attributed.
	if sl := analyzeSpans(spans, newHandlerTimes()); sl.incomplete != 1 || sl.clientNS != 0 {
		t.Errorf("request without handler timing: incomplete=%d client=%d", sl.incomplete, sl.clientNS)
	}
}

func TestWindowKeepsWholeTraces(t *testing.T) {
	t0 := time.Unix(3000, 0)
	early := span(trace.Span{Trace: trace.NewTraceID()}, "bench.request", t0, 0, 50)
	earlyChild := span(early, "http.events", t0, 110, 120) // ends inside the window
	late := span(trace.Span{Trace: trace.NewTraceID()}, "bench.request", t0, 100, 200)
	lateChild := span(late, "http.events", t0, 110, 190)
	remote := span(trace.Span{Trace: trace.NewTraceID(), ID: trace.NewSpanID()}, "http.events", t0, 120, 130)
	remote.Attrs = "remote=1 status=200"

	got := window([]trace.Span{early, earlyChild, late, lateChild, remote}, t0.Add(100*time.Microsecond))
	if len(got) != 2 || got[0].ID != late.ID || got[1].ID != lateChild.ID {
		t.Fatalf("window kept %v, want the late trace only", got)
	}
	if n := orphans(got); n != 0 {
		t.Errorf("%d orphans in a windowed set", n)
	}
	if n := orphans([]trace.Span{lateChild, remote}); n != 1 {
		t.Errorf("orphans = %d, want 1 (the child; the remote-parented span is expected)", n)
	}
}

// The follower's Apply wrapper and the client's acks meet on (session,
// LSN): lag runs from the ack to the return of the Apply call that carried
// the request's last record.
func TestReplicaLagMatchesBySessionAndLSN(t *testing.T) {
	step := func(id string, lsn uint64) wal.Record {
		return wal.Record{Type: wal.TypeStep, LSN: lsn, Body: eventlog.Step{ID: id, Event: online.Event{Arrive: []int{1}}}.Encode()}
	}
	inner := func(_ context.Context, _ int, recs []wal.Record) (uint64, error) {
		return recs[len(recs)-1].LSN, nil
	}
	log := newApplyLog(inner, 8)
	base := time.Now()
	log.apply(context.Background(), 0, []wal.Record{
		{Type: wal.TypeCreate, LSN: 1, Body: []byte("ignored")},
		step("m00000001", 2), step("m00000003", 3),
	})
	log.apply(context.Background(), 1, []wal.Record{step("m00000002", 2)})
	calls, steps := log.recorded()
	if len(calls) != 2 || calls[0].records != 3 || len(steps) != 3 {
		t.Fatalf("recorded %d calls (first with %d records) and %d steps", len(calls), calls[0].records, len(steps))
	}
	// Same LSN on two shards: only the session tells them apart.
	if steps[0].key != (lagKey{"m00000001", 2}) || steps[2].key != (lagKey{"m00000002", 2}) {
		t.Fatalf("step keys %v %v", steps[0].key, steps[2].key)
	}
	acks := []ackRef{
		{key: lagKey{"m00000001", 2}, at: steps[0].end.Add(-3 * time.Millisecond)},
		{key: lagKey{"m00000002", 2}, at: steps[2].end.Add(-1 * time.Millisecond)},
		{key: lagKey{"m00000009", 7}, at: base}, // never applied
	}
	rl := replicaLayerOf(log, acks, base.Add(-time.Hour), base.Add(time.Hour))
	if len(rl.lag) != 2 || rl.lag[0] != 3 || rl.lag[1] != 1 {
		t.Errorf("lags %v ms, want [3 1]", rl.lag)
	}
	if rl.missing != 1 {
		t.Errorf("missing = %d, want 1", rl.missing)
	}
	if len(rl.applyMS) != 2 || rl.records != 4 {
		t.Errorf("%d calls with %d records in the window, want 2 and 4", len(rl.applyMS), rl.records)
	}
	if rl := replicaLayerOf(log, acks, base.Add(time.Hour), base.Add(2*time.Hour)); len(rl.applyMS) != 0 {
		t.Errorf("calls outside the window counted: %v", rl.applyMS)
	}
}
