// Package simnet is the message-passing substrate for the asynchronous
// matching protocol (§IV). The paper's implementation model is
// slot-synchronous — "each round in the proposed algorithm takes one time
// slot" — so the network delivers a message sent in slot t at the start of
// slot t+1 by default. Fault injection (drop probability, bounded extra
// delay) lets tests and ablations exercise the protocol beyond the paper's
// idealized channel.
//
// Delivery is deterministic: messages due in a slot are handed over sorted
// by recipient, then sender, then send sequence, so protocol runs are
// reproducible regardless of scheduling.
package simnet

import (
	"fmt"
	"sort"

	"specmatch/internal/obs"
	"specmatch/internal/trace"
	"specmatch/internal/xrand"
)

// Kind distinguishes the two agent populations.
type Kind int

// Node kinds.
const (
	KindBuyer Kind = iota + 1
	KindSeller
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBuyer:
		return "buyer"
	case KindSeller:
		return "seller"
	default:
		return fmt.Sprintf("simnet.Kind(%d)", int(k))
	}
}

// NodeID addresses an agent.
type NodeID struct {
	Kind  Kind
	Index int
}

// Buyer returns the NodeID of buyer j.
func Buyer(j int) NodeID { return NodeID{Kind: KindBuyer, Index: j} }

// Seller returns the NodeID of seller i.
func Seller(i int) NodeID { return NodeID{Kind: KindSeller, Index: i} }

// String implements fmt.Stringer.
func (id NodeID) String() string { return fmt.Sprintf("%v#%d", id.Kind, id.Index) }

// less orders NodeIDs: buyers before sellers, then by index.
func (id NodeID) less(other NodeID) bool {
	if id.Kind != other.Kind {
		return id.Kind < other.Kind
	}
	return id.Index < other.Index
}

// Message is a protocol message in flight. Payload types are defined by the
// protocol layer (internal/agent).
type Message struct {
	From    NodeID
	To      NodeID
	Payload any

	seq int // send order, for deterministic FIFO tie-breaking
}

// Blackout is a window of slots during which every sent message is lost —
// a deterministic outage for liveness testing (e.g. a jammed channel or a
// crashed relay). Bounds are inclusive.
type Blackout struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// covers reports whether slot falls inside the window.
func (b Blackout) covers(slot int) bool { return slot >= b.From && slot <= b.To }

// Config tunes the network.
type Config struct {
	// DropProb is the probability each message is silently lost.
	DropProb float64
	// DelayMax adds a uniform extra delay in [0, DelayMax] slots on top of
	// the baseline one-slot latency.
	DelayMax int
	// Blackouts are outage windows; messages sent while one is active are
	// dropped deterministically.
	Blackouts []Blackout
	// Seed drives drop and delay randomness.
	Seed int64

	// Metrics, when non-nil, receives network instrumentation mirroring
	// Stats (simnet.sent, simnet.delivered, simnet.dropped) plus
	// simnet.delayed (messages that drew a nonzero extra delay) and the
	// simnet.in_flight depth gauge. Counters are cumulative across networks
	// sharing the registry; the gauge reflects the most recent network.
	// Nil disables instrumentation and never changes delivery behavior.
	Metrics *obs.Registry

	// Flight, when non-nil, records one simnet.slot span per non-empty slot,
	// parented under SpanParent. Nil disables tracing and never changes
	// delivery behavior.
	Flight *trace.Flight

	// SpanParent parents the per-slot spans (typically the agent.run root).
	SpanParent trace.SpanContext
}

// Stats counts network activity.
type Stats struct {
	Sent      int `json:"sent"`
	Delivered int `json:"delivered"`
	Dropped   int `json:"dropped"`
}

// Network is a slot-synchronous network. The zero value is not usable;
// construct with New.
type Network struct {
	cfg     Config
	rng     interface{ Float64() float64 }
	rngInt  interface{ Intn(int) int }
	now     int
	nextSeq int
	pending map[int][]Message
	stats   Stats
	met     *netMetrics // nil when Config.Metrics is nil
}

// netMetrics holds the network's registry handles, built once at New.
type netMetrics struct {
	sent      *obs.Counter
	delivered *obs.Counter
	dropped   *obs.Counter
	delayed   *obs.Counter
	inFlight  *obs.Gauge
}

func newNetMetrics(reg *obs.Registry) *netMetrics {
	if reg == nil {
		return nil
	}
	return &netMetrics{
		sent:      reg.Counter("simnet.sent"),
		delivered: reg.Counter("simnet.delivered"),
		dropped:   reg.Counter("simnet.dropped"),
		delayed:   reg.Counter("simnet.delayed"),
		inFlight:  reg.Gauge("simnet.in_flight"),
	}
}

// New returns an empty network at slot 0.
func New(cfg Config) (*Network, error) {
	if cfg.DropProb < 0 || cfg.DropProb >= 1 {
		return nil, fmt.Errorf("simnet: drop probability %v outside [0,1)", cfg.DropProb)
	}
	if cfg.DelayMax < 0 {
		return nil, fmt.Errorf("simnet: negative DelayMax %d", cfg.DelayMax)
	}
	r := xrand.New(cfg.Seed)
	return &Network{
		cfg:     cfg,
		rng:     r,
		rngInt:  r,
		pending: make(map[int][]Message),
		met:     newNetMetrics(cfg.Metrics),
	}, nil
}

// Now returns the current slot number.
func (n *Network) Now() int { return n.now }

// Stats returns delivery counters.
func (n *Network) Stats() Stats { return n.stats }

// InFlight returns the number of undelivered, undropped messages.
func (n *Network) InFlight() int {
	total := 0
	for _, msgs := range n.pending {
		total += len(msgs)
	}
	return total
}

// Send enqueues a message for delivery at the start of a future slot
// (now + 1 + delay), or drops it per the fault configuration.
func (n *Network) Send(msg Message) {
	n.stats.Sent++
	if n.met != nil {
		n.met.sent.Inc()
	}
	msg.seq = n.nextSeq
	n.nextSeq++
	for _, b := range n.cfg.Blackouts {
		if b.covers(n.now) {
			n.drop()
			return
		}
	}
	if n.cfg.DropProb > 0 && n.rng.Float64() < n.cfg.DropProb {
		n.drop()
		return
	}
	delay := 0
	if n.cfg.DelayMax > 0 {
		delay = n.rngInt.Intn(n.cfg.DelayMax + 1)
	}
	due := n.now + 1 + delay
	n.pending[due] = append(n.pending[due], msg)
	if n.met != nil {
		n.met.inFlight.Add(1)
		if delay > 0 {
			n.met.delayed.Inc()
		}
	}
}

func (n *Network) drop() {
	n.stats.Dropped++
	if n.met != nil {
		n.met.dropped.Inc()
	}
}

// Step advances to the next slot and returns the messages due in it, in
// deterministic (recipient, sender, send-order) order.
func (n *Network) Step() []Message {
	n.now++
	due := n.pending[n.now]
	delete(n.pending, n.now)
	var span trace.SpanHandle
	if len(due) > 0 {
		span = n.cfg.Flight.Start(n.cfg.SpanParent, "simnet.slot")
	}
	sort.Slice(due, func(a, b int) bool {
		if due[a].To != due[b].To {
			return due[a].To.less(due[b].To)
		}
		if due[a].From != due[b].From {
			return due[a].From.less(due[b].From)
		}
		return due[a].seq < due[b].seq
	})
	n.stats.Delivered += len(due)
	if n.met != nil && len(due) > 0 {
		n.met.delivered.Add(int64(len(due)))
		n.met.inFlight.Add(-int64(len(due)))
	}
	if span.Active() {
		span.Annotate(fmt.Sprintf("slot=%d delivered=%d", n.now, len(due)))
	}
	span.End()
	return due
}
