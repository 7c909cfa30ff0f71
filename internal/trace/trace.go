// Package trace records structured protocol events. Both the synchronous
// engine (internal/core) and the asynchronous agents (internal/agent) emit
// events through an optional Recorder, which tests and CLIs use to inspect
// round-by-round behavior — e.g. to assert the exact proposal sequence of the
// paper's worked example (Figs. 1–2).
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies a protocol event.
type Kind int

// Event kinds, covering both stages of the matching protocol.
const (
	KindPropose        Kind = iota + 1 // buyer proposes to seller (Stage I)
	KindAccept                         // seller keeps/admits buyer into waiting list
	KindReject                         // seller rejects a proposer
	KindEvict                          // seller evicts a previously wait-listed buyer
	KindTransferApply                  // buyer applies for transfer (Stage II Phase 1)
	KindTransferAccept                 // seller grants a transfer
	KindTransferReject                 // seller denies a transfer (→ invitation list)
	KindInvite                         // seller invites a rejected buyer (Phase 2)
	KindInviteAccept                   // buyer accepts an invitation
	KindInviteDecline                  // buyer declines an invitation
	KindTransition                     // agent performs a stage/phase transition
)

var _kindNames = map[Kind]string{
	KindPropose:        "propose",
	KindAccept:         "accept",
	KindReject:         "reject",
	KindEvict:          "evict",
	KindTransferApply:  "transfer-apply",
	KindTransferAccept: "transfer-accept",
	KindTransferReject: "transfer-reject",
	KindInvite:         "invite",
	KindInviteAccept:   "invite-accept",
	KindInviteDecline:  "invite-decline",
	KindTransition:     "transition",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := _kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("trace.Kind(%d)", int(k))
}

// Event is one protocol step. Buyer and Seller are -1 when not applicable.
type Event struct {
	Round  int    `json:"round"`
	Kind   Kind   `json:"kind"`
	Buyer  int    `json:"buyer"`
	Seller int    `json:"seller"`
	Note   string `json:"note,omitempty"`
}

// String renders the event in a compact single-line form.
func (e Event) String() string {
	return fmt.Sprintf("[r%03d] %-16s buyer=%d seller=%d %s", e.Round, e.Kind, e.Buyer, e.Seller, e.Note)
}

// Recorder accumulates events. A nil *Recorder is valid and discards
// everything, so call sites never need nil checks. It grows without bound:
// it is for a test or CLI inspecting one run, not for a long-lived session
// that steps forever.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an event. No-op on a nil recorder.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in order. The caller must not mutate
// the returned slice.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Filter returns the recorded events of the given kind, in order.
func (r *Recorder) Filter(kind Kind) []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.events))
	for _, e := range r.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// String renders the full log, one event per line.
func (r *Recorder) String() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range r.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
