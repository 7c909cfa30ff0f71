package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"specmatch/internal/core"
	"specmatch/internal/eventlog"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/server"
)

// verdict is the replay oracle's finding over a fleet.
type verdict struct {
	verified     int      // sessions whose every ack and final snapshot matched
	unverifiable int      // sessions touched by a request of unknown fate
	mismatches   []string // one line per disagreement

	// Offline timings on the run's exact bodies and acked events.
	events                       int
	replayNS, decodeNS, encodeNS int64
}

func (v *verdict) add(o verdict) {
	v.verified += o.verified
	v.unverifiable += o.unverifiable
	v.mismatches = append(v.mismatches, o.mismatches...)
	v.events += o.events
	v.replayNS += o.replayNS
	v.decodeNS += o.decodeNS
	v.encodeNS += o.encodeNS
}

// replayAll replays every session's acknowledged requests offline, in ack
// order, through a fresh online.Session, on numSenders goroutines (sessions
// are independent). Each ack's StepStats and the final snapshot must be
// bit-identical to the replay.
func replayAll(w *workload, sessions []*session) verdict {
	parts := make([]verdict, numSenders)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(sessions); k += numSenders {
				parts[g].add(replaySession(w, sessions[k]))
			}
		}(g)
	}
	wg.Wait()
	var v verdict
	for _, p := range parts {
		v.add(p)
	}
	return v
}

func replaySession(w *workload, s *session) verdict {
	var v verdict
	if s.unknown > 0 {
		v.unverifiable = 1
		return v
	}
	fail := func(format string, args ...any) verdict {
		v.mismatches = append(v.mismatches, fmt.Sprintf("session %s: ", s.id)+fmt.Sprintf(format, args...))
		return v
	}
	var cr server.CreateRequest
	if err := json.Unmarshal(s.spec, &cr); err != nil {
		return fail("spec: %v", err)
	}
	m, err := market.FromSpec(cr.Spec)
	if err != nil {
		return fail("spec: %v", err)
	}
	rs, err := online.NewSession(m, core.Options{Workers: 1})
	if err != nil {
		return fail("replay session: %v", err)
	}
	for r, e := range s.ledger {
		if e.fate != applied {
			continue
		}
		body := s.stream.bodies[e.body]
		t0 := time.Now()
		events, err := decodeBody(body, w.binary)
		v.decodeNS += int64(time.Since(t0))
		if err != nil {
			return fail("request %d body: %v", r, err)
		}
		if len(events) != len(e.stats) {
			return fail("request %d: %d events sent, %d acknowledged", r, len(events), len(e.stats))
		}
		for i, ev := range events {
			t0 = time.Now()
			_ = eventlog.Step{ID: s.id, Event: ev}.Encode()
			t1 := time.Now()
			got, err := rs.Step(ev)
			v.encodeNS += int64(t1.Sub(t0))
			v.replayNS += int64(time.Since(t1))
			v.events++
			if err != nil {
				return fail("request %d event %d: replay rejected an acknowledged event: %v", r, i, err)
			}
			if got != e.stats[i] {
				return fail("request %d event %d: ack %+v, replay %+v", r, i, e.stats[i], got)
			}
		}
	}
	if !sameSnapshot(s.final, rs.Snapshot()) {
		return fail("final snapshot differs from the replay")
	}
	v.verified = 1
	return v
}

// decodeBody parses a request body the way the server does.
func decodeBody(body []byte, binary bool) ([]online.Event, error) {
	if binary {
		return eventlog.DecodeBatch(body)
	}
	var ev online.Event
	if err := json.Unmarshal(body, &ev); err != nil {
		return nil, err
	}
	return []online.Event{ev}, nil
}

// sameSnapshot compares two snapshots bit for bit through their JSON form,
// which carries welfare floats exactly.
func sameSnapshot(a, b online.Snapshot) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && bytes.Equal(ja, jb)
}
