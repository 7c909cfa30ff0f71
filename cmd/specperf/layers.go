package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// Per-layer attribution is measured from outside the program: the server's
// existing flight spans (http.*, server.shard_op with its queue_wait_us
// annotation, wal.append, online.step, core.dirty, wal.checkpoint), the
// benchmark's own bench.request spans and handler middleware, the registry's
// counters, and the follower Apply wrapper.

// selfTime is a span's duration minus the part of its interval covered by
// its children (overlapping children count once).
func selfTime(s trace.Span, children []trace.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case !x.a.After(cur.b):
			if x.b.After(cur.b) {
				cur.b = x.b
			}
		default:
			covered += cur.b.Sub(cur.a)
			cur = x
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Duration() - covered
}

// attrInt reads an integer "key=value" attribute from a span's attrs.
func attrInt(attrs, key string) (int64, bool) {
	for _, f := range strings.Fields(attrs) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// window keeps the spans of traces that began at or after from: every trace
// a traced-phase request started, plus root spans such as wal.checkpoint.
// A trace whose root began earlier is left out whole, so no kept span loses
// its parent.
func window(spans []trace.Span, from time.Time) []trace.Span {
	rootStart := make(map[trace.TraceID]time.Time)
	for _, s := range spans {
		if s.Parent.IsZero() {
			rootStart[s.Trace] = s.Start
		}
	}
	var out []trace.Span
	for _, s := range spans {
		if t, ok := rootStart[s.Trace]; ok && !t.Before(from) {
			out = append(out, s)
		}
	}
	return out
}

// orphans counts spans whose parent is neither in the set nor marked remote.
func orphans(spans []trace.Span) int {
	present := make(map[trace.SpanID]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	n := 0
	for _, s := range spans {
		if !s.Parent.IsZero() && !present[s.Parent] && !strings.Contains(" "+s.Attrs+" ", " remote=1 ") {
			n++
		}
	}
	return n
}

// spanLayers is the traced run's per-request breakdown. Every complete
// request's client latency is tiled by transport, decode, queue wait, the
// shard op, WAL wait and reply; what the tiles miss is unattributed.
type spanLayers struct {
	handler, decode, reply, transport []float64 // µs, event requests
	snapshot                          []float64 // µs, shard-op time of GETs
	queueWait                         []float64 // µs, every shard op
	walWait                           []float64 // µs, every wal.append (append → durable)
	stepSelf, dirty                   []float64 // µs, online.step self time and core.dirty
	checkpointMaxMS                   float64
	clientNS, unattributedNS          int64
	incomplete                        int // traced requests without a full span tree
}

// childIndex maps a span id to the spans it parents.
type childIndex map[trace.SpanID][]trace.Span

// first returns id's first child whose name starts with prefix.
func (ci childIndex) first(id trace.SpanID, prefix string) (trace.Span, bool) {
	for _, c := range ci[id] {
		if strings.HasPrefix(c.Name, prefix) {
			return c, true
		}
	}
	return trace.Span{}, false
}

func analyzeSpans(spans []trace.Span, ht *handlerTimes) spanLayers {
	var out spanLayers
	children := make(childIndex)
	for _, s := range spans {
		if !s.Parent.IsZero() {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		switch s.Name {
		case "server.shard_op":
			if q, ok := attrInt(s.Attrs, "queue_wait_us"); ok {
				out.queueWait = append(out.queueWait, float64(q))
			}
		case "wal.append":
			out.walWait = append(out.walWait, us(s.Duration()))
		case "online.step":
			out.stepSelf = append(out.stepSelf, us(selfTime(s, children[s.ID])))
		case "core.dirty":
			out.dirty = append(out.dirty, us(s.Duration()))
		case "wal.checkpoint":
			out.checkpointMaxMS = max(out.checkpointMaxMS, ms(s.Duration()))
		case "bench.request":
			out.request(s, children, ht)
		}
	}
	return out
}

// request attributes one bench.request's client latency to layers.
func (out *spanLayers) request(root trace.Span, children childIndex, ht *handlerTimes) {
	httpSpan, ok1 := children.first(root.ID, "http.")
	op, ok2 := children.first(httpSpan.ID, "server.shard_op")
	qus, ok3 := attrInt(op.Attrs, "queue_wait_us")
	handler, ok4 := ht.lookup(root.Trace)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		out.incomplete++
		return
	}
	queue := time.Duration(qus) * time.Microsecond
	decode := op.Start.Add(-queue).Sub(httpSpan.Start)
	durable := op.End
	for _, c := range children[op.ID] {
		if c.Name == "wal.append" && c.End.After(durable) {
			durable = c.End
		}
	}
	walWait := durable.Sub(op.End)
	reply := httpSpan.End.Sub(durable)
	client := root.Duration()
	transport := client - handler
	covered := transport + decode + queue + op.Duration() + walWait + reply
	out.clientNS += int64(client)
	if gap := client - covered; gap > 0 {
		out.unattributedNS += int64(gap)
	}
	if httpSpan.Name == "http.get" {
		out.snapshot = append(out.snapshot, us(op.Duration()))
		return
	}
	out.handler = append(out.handler, us(handler))
	out.decode = append(out.decode, us(decode))
	out.reply = append(out.reply, us(reply))
	out.transport = append(out.transport, us(transport))
}

// counterDelta is the change of every counter and the fsync histogram
// across a window.
type counterDelta struct {
	c     map[string]int64
	fsync obs.HistogramSnapshot
}

func deltaOf(before, after obs.Snapshot) counterDelta {
	d := counterDelta{c: make(map[string]int64)}
	for name, v := range after.Counters {
		d.c[name] = v - before.Counters[name]
	}
	a, b := after.Histograms["server.wal.fsync_seconds"], before.Histograms["server.wal.fsync_seconds"]
	d.fsync = obs.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i, bk := range a.Buckets {
		if i < len(b.Buckets) {
			bk.Count -= b.Buckets[i].Count
		}
		d.fsync.Buckets = append(d.fsync.Buckets, bk)
	}
	return d
}

func (d counterDelta) get(name string) float64 { return float64(d.c[name]) }

// replicaLayer is the follower's view of the acknowledged requests of one
// window: when the Apply call carrying each request's last record started
// (deliver) and returned (lag), both from the client's ack, and the calls
// made inside the window.
type replicaLayer struct {
	deliver, lag []float64 // ms
	applyMS      []float64
	records      int
	missing      int // acknowledged records the follower never applied
}

func replicaLayerOf(applies *applyLog, acks []ackRef, from, to time.Time) replicaLayer {
	var out replicaLayer
	if applies == nil {
		return out
	}
	calls, steps := applies.recorded()
	byKey := make(map[lagKey]appliedStep, len(steps))
	for _, st := range steps {
		byKey[st.key] = st
	}
	for _, a := range acks {
		st, ok := byKey[a.key]
		if !ok {
			out.missing++
			continue
		}
		out.deliver = append(out.deliver, ms(st.start.Sub(a.at)))
		out.lag = append(out.lag, ms(st.end.Sub(a.at)))
	}
	for _, c := range calls {
		if c.start.Before(from) || !c.start.Before(to) {
			continue
		}
		out.applyMS = append(out.applyMS, ms(c.end.Sub(c.start)))
		out.records += c.records
	}
	return out
}

// depthSampler polls every shard's queue-depth gauge and keeps the maximum.
type depthSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  int64
}

func sampleDepth(reg *obs.Registry, shards int) *depthSampler {
	d := &depthSampler{stop: make(chan struct{})}
	names := make([]string, shards)
	for i := range names {
		names[i] = fmt.Sprintf("server.shard.%d.queue_depth", i)
	}
	d.done.Add(1)
	go func() {
		defer d.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-t.C:
			}
			for _, n := range names {
				d.max = max(d.max, reg.GaugeValue(n))
			}
		}
	}()
	return d
}

// finish stops the sampler and returns the deepest queue it saw.
func (d *depthSampler) finish() int64 {
	close(d.stop)
	d.done.Wait()
	return d.max
}
