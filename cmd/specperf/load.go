package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"specmatch/internal/eventlog"
	"specmatch/internal/online"
	"specmatch/internal/server"
	"specmatch/internal/trace"
)

// Load shape: 2 sender goroutines on at most 2 loopback connections, one
// request in flight per sender. Each sender owns a disjoint half of the
// sessions, so every session has exactly one writer and its ack order is
// its apply order.
const (
	numSenders = 2
	maxConns   = 2
)

// session is one hosted market as the benchmark sees it.
type session struct {
	id     string
	spec   []byte
	stream *stream

	// ledger lists the session's event requests in send order; stats is the
	// reserved backing store their acknowledged StepStats are copied into.
	ledger []sent
	stats  []online.StepStats
	// unknown counts requests whose effect the benchmark cannot know (a
	// transport error, a 5xx): the session can no longer be replayed.
	unknown int
	// final is the snapshot GET returned after load stopped.
	final online.Snapshot
}

type fate uint8

const (
	applied  fate = iota
	rejected      // a status that guarantees nothing was applied
	unknownFate
)

// sent is one event request: which body, what became of it, the
// acknowledged per-event stats and the last event's LSN.
type sent struct {
	body  int
	fate  fate
	stats []online.StepStats
	lsn   uint64
}

func newSessions(in *inputs, w *workload) []*session {
	out := make([]*session, len(in.streams))
	for k, st := range in.streams {
		pool := cap(st.bodies)
		out[k] = &session{
			spec:   in.specs[k],
			stream: st,
			ledger: make([]sent, 0, pool),
			stats:  make([]online.StepStats, 0, pool*w.batch),
		}
	}
	return out
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}}
}

// createSessions posts every spec in order from one goroutine, so session k
// always gets the same id and therefore the same shard.
func createSessions(client *http.Client, base string, sessions []*session) error {
	for k, s := range sessions {
		resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(s.spec))
		if err != nil {
			return fmt.Errorf("create session %d: %w", k, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("create session %d: %w", k, err)
		}
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create session %d: status %d: %s", k, resp.StatusCode, data)
		}
		var cr server.CreateResponse
		if err := json.Unmarshal(data, &cr); err != nil {
			return fmt.Errorf("create session %d: %w", k, err)
		}
		s.id = cr.ID
	}
	return nil
}

// phaseStats is what one sender saw in one phase. Its storage is reserved
// before the heap baseline is read, so recording does not show in heap_mb.
type phaseStats struct {
	origin   time.Time       // phase start; eventAt and perSecond count from it
	eventLat []float64       // ms, event requests: due→ack when paced, send→ack when saturating
	eventAt  []time.Duration // when each eventLat sample's reply arrived
	readLat  []float64       // ms, snapshot GETs, same origin
	late     []float64       // ms, how far behind its due time each paced request was sent
	events   int             // events in acknowledged requests
	attempts int
	failures int      // transport errors and non-2xx replies
	acks     []ackRef // acknowledged event requests, kept for replication lag
	// perSecond[i] counts the events acknowledged in the phase's second i.
	perSecond []int
}

// ackRef is one acknowledged event request: its last record and when the
// client saw the ack.
type ackRef struct {
	key lagKey
	at  time.Time
}

// newPhaseStats reserves room for expect requests over a phase of the given
// length, with ack records only when replication lag is measured.
func newPhaseStats(expect int, length time.Duration, acks bool) *phaseStats {
	st := &phaseStats{
		eventLat:  make([]float64, 0, expect),
		eventAt:   make([]time.Duration, 0, expect),
		readLat:   make([]float64, 0, expect/4),
		late:      make([]float64, 0, expect),
		perSecond: make([]int, int(length/time.Second)+2),
	}
	if acks {
		st.acks = make([]ackRef, 0, expect)
	}
	return st
}

// merge folds per-sender stats into one.
func merge(parts []*phaseStats) *phaseStats {
	out := &phaseStats{}
	for _, p := range parts {
		out.origin = p.origin
		out.eventLat = append(out.eventLat, p.eventLat...)
		out.eventAt = append(out.eventAt, p.eventAt...)
		out.readLat = append(out.readLat, p.readLat...)
		out.late = append(out.late, p.late...)
		out.events += p.events
		out.attempts += p.attempts
		out.failures += p.failures
		out.acks = append(out.acks, p.acks...)
		if out.perSecond == nil {
			out.perSecond = make([]int, len(p.perSecond))
		}
		for i, n := range p.perSecond {
			out.perSecond[i] += n
		}
	}
	return out
}

// outcome is one finished request.
type outcome struct {
	read   bool
	ok     bool
	events int
	key    lagKey // last record of an acknowledged durable event request
	reply  time.Time
}

func (st *phaseStats) record(o outcome, latency time.Duration) {
	st.attempts++
	if !o.ok {
		st.failures++
		return
	}
	if o.read {
		st.readLat = append(st.readLat, ms(latency))
		return
	}
	at := o.reply.Sub(st.origin)
	st.eventLat = append(st.eventLat, ms(latency))
	st.eventAt = append(st.eventAt, at)
	st.events += o.events
	if sec := int(at / time.Second); sec >= 0 && sec < len(st.perSecond) {
		st.perSecond[sec] += o.events
	}
	if st.acks != nil && o.key.lsn > 0 {
		st.acks = append(st.acks, ackRef{key: o.key, at: o.reply})
	}
}

// sender is one load goroutine's state.
type sender struct {
	w        *workload
	client   *http.Client
	base     string
	fl       *trace.Flight // receives bench.request spans on traced requests
	sessions []*session
	rr, n    int // round-robin cursor; requests issued

	sched *poisson
	epoch time.Time // schedule origin
	due   time.Time // next request's due time
}

// pace runs the open loop until the schedule passes until: each request is
// sent at its due time, or at once when the previous reply came back after
// it, and its latency counts from the due time, so a stall is charged to
// every request it delays. A nil st discards the samples (warm-up).
func (s *sender) pace(until time.Time, st *phaseStats, traced bool) {
	for s.due.Before(until) {
		if d := time.Until(s.due); d > 0 {
			time.Sleep(d)
		}
		sendAt := time.Now()
		o := s.issue(traced)
		if st != nil {
			st.record(o, o.reply.Sub(s.due))
			st.late = append(st.late, ms(sendAt.Sub(s.due)))
		}
		s.due = s.epoch.Add(s.sched.next())
	}
}

// saturate runs the closed loop until the deadline: the next request goes
// out as soon as the previous reply is read.
func (s *sender) saturate(until time.Time, st *phaseStats) {
	for time.Now().Before(until) {
		sendAt := time.Now()
		o := s.issue(false)
		st.record(o, o.reply.Sub(sendAt))
	}
}

// issue sends the sender's next request: the next session in round-robin
// order, as a snapshot GET on every readEvery-th request and as its next
// event body otherwise.
func (s *sender) issue(traced bool) outcome {
	sess := s.sessions[s.rr]
	s.rr = (s.rr + 1) % len(s.sessions)
	s.n++
	if s.w.readEvery > 0 && s.n%s.w.readEvery == 0 {
		return s.get(sess, traced)
	}
	return s.post(sess, traced)
}

func (s *sender) post(sess *session, traced bool) outcome {
	idx, body := sess.stream.take()
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/sessions/"+sess.id+"/events", bytes.NewReader(body))
	if err != nil {
		panic(fmt.Sprintf("specperf: building request: %v", err)) // base URL and ids are the benchmark's own
	}
	if s.w.binary {
		req.Header.Set("Content-Type", eventlog.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	o := outcome{}
	status, data, err := s.roundTrip(req, traced, &o)
	e := sent{body: idx, fate: unknownFate}
	switch {
	case err != nil:
	case status == http.StatusOK:
		if results, derr := decodeAcks(data, s.w.binary); derr == nil {
			e.fate = applied
			start := len(sess.stats)
			for _, r := range results {
				sess.stats = append(sess.stats, r.StepStats)
				e.lsn = r.LSN
			}
			e.stats = sess.stats[start:len(sess.stats):len(sess.stats)]
			o.ok, o.events = true, len(results)
			if e.lsn > 0 {
				o.key = lagKey{session: sess.id, lsn: e.lsn}
			}
		}
	case notApplied(status):
		e.fate = rejected
	}
	if e.fate == unknownFate {
		sess.unknown++
	}
	sess.ledger = append(sess.ledger, e)
	return o
}

// notApplied reports statuses after which the store guarantees the request
// changed nothing: bad input, unknown session, admission rejections and a
// draining store.
func notApplied(status int) bool {
	switch status {
	case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict,
		http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// decodeAcks reads the per-event acknowledgements of a 200 reply: a batch
// reply for binary bodies, the single-event reply for a JSON event.
func decodeAcks(data []byte, batch bool) ([]server.EventResponse, error) {
	if batch {
		var br server.BatchResponse
		if err := json.Unmarshal(data, &br); err != nil {
			return nil, err
		}
		return br.Results, nil
	}
	var er server.EventResponse
	if err := json.Unmarshal(data, &er); err != nil {
		return nil, err
	}
	return []server.EventResponse{er}, nil
}

func (s *sender) get(sess *session, traced bool) outcome {
	req, err := http.NewRequest(http.MethodGet, s.base+"/v1/sessions/"+sess.id, nil)
	if err != nil {
		panic(fmt.Sprintf("specperf: building request: %v", err))
	}
	o := outcome{read: true}
	status, _, err := s.roundTrip(req, traced, &o)
	o.ok = err == nil && status == http.StatusOK
	return o
}

// roundTrip sends req and reads the whole reply. When traced it wraps the
// exchange in a bench.request span whose traceparent header parents the
// server's http.* span. o.reply is set when the reply has been read.
func (s *sender) roundTrip(req *http.Request, traced bool, o *outcome) (int, []byte, error) {
	var span trace.SpanHandle
	if traced {
		span = s.fl.Start(trace.SpanContext{}, "bench.request")
		req.Header.Set("traceparent", trace.FormatTraceparent(span.Context()))
	}
	defer span.End()
	resp, err := s.client.Do(req)
	if err != nil {
		o.reply = time.Now()
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.reply = time.Now()
	return resp.StatusCode, data, err
}

// runPhase runs fn on every sender concurrently, each recording into its own
// part (nil parts discard the samples), and returns the merged stats.
func runPhase(senders []*sender, parts []*phaseStats, fn func(s *sender, st *phaseStats)) *phaseStats {
	origin := time.Now()
	var wg sync.WaitGroup
	for i, s := range senders {
		var st *phaseStats
		if parts != nil {
			st = parts[i]
			st.origin = origin
		}
		wg.Add(1)
		go func(s *sender, st *phaseStats) {
			defer wg.Done()
			fn(s, st)
		}(s, st)
	}
	wg.Wait()
	if parts == nil {
		return nil
	}
	return merge(parts)
}

// handlerTimes is the traced run's middleware around Server.Handler(): it
// times each traced request inside the server's handler, keyed by the
// request's trace id, so transport time is client latency minus this.
type handlerTimes struct {
	mu sync.Mutex
	d  map[trace.TraceID]time.Duration
}

func newHandlerTimes() *handlerTimes {
	return &handlerTimes{d: make(map[trace.TraceID]time.Duration)}
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
		start := time.Now()
		next.ServeHTTP(w, r)
		if ok {
			d := time.Since(start)
			h.mu.Lock()
			h.d[sc.Trace] = d
			h.mu.Unlock()
		}
	})
}

func (h *handlerTimes) lookup(t trace.TraceID) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.d[t]
	return d, ok
}
