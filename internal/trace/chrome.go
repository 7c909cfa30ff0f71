package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// Flight dumps are Chrome trace-event JSON ({"traceEvents":[...]}) so any
// about:tracing / Perfetto UI opens them directly; the span identity and
// nanosecond-precision timestamps ride in args, so specstrace can
// reconstruct the exact causal tree from the same file.

// chromeEvent is one complete ("ph":"X") trace event.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	TS   float64    `json:"ts"`  // microseconds (Chrome's unit)
	Dur  float64    `json:"dur"` // microseconds
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

// chromeArgs carries the lossless span identity. StartNS and DurNS are
// decimal strings: unix nanoseconds exceed 2^53, so a JSON number would
// round.
type chromeArgs struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	StartNS string `json:"start_ns"`
	DurNS   string `json:"dur_ns"`
	Attrs   string `json:"attrs,omitempty"`
}

type chromeDump struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	// Meta mirrors the recorder counters so an analyzer can tell a complete
	// dump from a wrapped one.
	Recorded    uint64 `json:"recorded,omitempty"`
	Overwritten uint64 `json:"overwritten,omitempty"`
}

// WriteChrome writes spans as a Chrome trace-event JSON document. Distinct
// traces are assigned distinct tids (in first-seen order) so the timeline
// view separates concurrent requests into rows.
func WriteChrome(w io.Writer, spans []Span, recorded, overwritten uint64) error {
	dump := chromeDump{
		TraceEvents: make([]chromeEvent, 0, len(spans)),
		Recorded:    recorded,
		Overwritten: overwritten,
	}
	tids := make(map[TraceID]int)
	for _, s := range spans {
		tid, ok := tids[s.Trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.Trace] = tid
		}
		ev := chromeEvent{
			Name: s.Name,
			Cat:  "span",
			Ph:   "X",
			TS:   float64(s.Start.UnixNano()) / 1e3,
			Dur:  float64(s.Duration()) / 1e3,
			PID:  1,
			TID:  tid,
			Args: chromeArgs{
				Trace:   s.Trace.String(),
				Span:    s.ID.String(),
				StartNS: strconv.FormatInt(s.Start.UnixNano(), 10),
				DurNS:   strconv.FormatInt(int64(s.Duration()), 10),
				Attrs:   s.Attrs,
			},
		}
		if !s.Parent.IsZero() {
			ev.Args.Parent = s.Parent.String()
		}
		dump.TraceEvents = append(dump.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(dump)
}

// WriteChromeFlight dumps the recorder's current snapshot.
func WriteChromeFlight(w io.Writer, f *Flight) error {
	return WriteChrome(w, f.Snapshot(), f.Recorded(), f.Overwritten())
}

// WriteChromeFlightFile dumps the recorder's current snapshot to path
// atomically: it writes path+".tmp" and renames it over path, so a reader
// never sees a torn dump. On failure the tmp file is removed and path is
// left as it was.
func WriteChromeFlightFile(path string, f *Flight) error {
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = WriteChromeFlight(out, f)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// ReadChrome parses a dump produced by WriteChrome back into spans. Events
// that are not complete span events (no "X" phase or no span identity) are
// skipped, so a hand-edited or tool-merged trace file still loads.
func ReadChrome(r io.Reader) ([]Span, error) {
	var dump chromeDump
	if err := json.NewDecoder(r).Decode(&dump); err != nil {
		return nil, fmt.Errorf("trace: chrome dump: %w", err)
	}
	spans := make([]Span, 0, len(dump.TraceEvents))
	for k, ev := range dump.TraceEvents {
		if ev.Ph != "X" || ev.Args.Trace == "" || ev.Args.Span == "" {
			continue
		}
		t, err := ParseTraceID(ev.Args.Trace)
		if err != nil {
			return nil, fmt.Errorf("trace: chrome event %d: %w", k, err)
		}
		id, err := ParseSpanID(ev.Args.Span)
		if err != nil {
			return nil, fmt.Errorf("trace: chrome event %d: %w", k, err)
		}
		s := Span{Trace: t, ID: id, Name: ev.Name, Attrs: ev.Args.Attrs}
		if ev.Args.Parent != "" {
			if s.Parent, err = ParseSpanID(ev.Args.Parent); err != nil {
				return nil, fmt.Errorf("trace: chrome event %d: %w", k, err)
			}
		}
		startNS, err := strconv.ParseInt(ev.Args.StartNS, 10, 64)
		if err != nil { // fall back to the µs fields (foreign trace file)
			startNS = int64(ev.TS * 1e3)
		}
		durNS, err := strconv.ParseInt(ev.Args.DurNS, 10, 64)
		if err != nil {
			durNS = int64(ev.Dur * 1e3)
		}
		s.Start = time.Unix(0, startNS)
		s.End = s.Start.Add(time.Duration(durNS))
		spans = append(spans, s)
	}
	return spans, nil
}
