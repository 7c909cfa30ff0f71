package agent

import (
	"specmatch/internal/market"
	"specmatch/internal/simnet"
	"specmatch/internal/trace"
)

// BuyerNode and SellerNode wrap the agent state machines for external
// transports (package wire runs them over real TCP connections): the caller
// delivers inbound messages, ticks the node once per slot, and ships the
// returned outbound messages however it likes. The state machines are
// exactly the ones Run uses over simnet, so protocol behavior is
// transport-independent by construction.

// sendBuffer captures an agent's sends for the caller to transport.
type sendBuffer struct {
	msgs []simnet.Message
}

// Send implements netSender.
func (sb *sendBuffer) Send(msg simnet.Message) { sb.msgs = append(sb.msgs, msg) }

func (sb *sendBuffer) drain() []simnet.Message {
	out := sb.msgs
	sb.msgs = nil
	return out
}

// BuyerNode is a transport-agnostic buyer protocol endpoint.
type BuyerNode struct {
	b   *buyerAgent
	buf *sendBuffer
	met *msgMeter
	fl  *trace.Flight
}

// NewBuyerNode creates the endpoint for buyer id. The config's network
// settings are ignored — the caller owns the transport — but Metrics and
// Events are honored, so deployed nodes report the same agent.* metrics as
// the simulated runtime (Run).
func NewBuyerNode(id int, m *market.Market, cfg Config) *BuyerNode {
	cfg = cfg.withDefaults(m.M(), m.N())
	buf := &sendBuffer{}
	met := newMsgMeter(cfg.Metrics)
	return &BuyerNode{
		b:   newBuyerAgent(id, m, cfg, defaultSchedule(m.M(), m.N()), met.meter(buf)),
		buf: buf,
		met: met,
		fl:  cfg.Flight,
	}
}

// Deliver feeds one inbound message to the state machine; its agent.handle
// span is a trace root.
func (n *BuyerNode) Deliver(msg simnet.Message) {
	n.DeliverTraced(msg, trace.SpanContext{})
}

// DeliverTraced is Deliver under an explicit trace parent, recording one
// agent.handle span per message when the node carries a Flight.
func (n *BuyerNode) DeliverTraced(msg simnet.Message, parent trace.SpanContext) {
	h := n.fl.Start(parent, "agent.handle")
	n.met.onDeliver(msg)
	n.b.handle(msg)
	if h.Active() {
		h.Annotate("to=" + msg.To.String() + " type=" + PayloadName(msg.Payload))
	}
	h.End()
}

// Tick advances the node to the given slot and returns its outbound
// messages.
func (n *BuyerNode) Tick(now int) []simnet.Message {
	wasStageI := n.b.stage == 1
	n.b.tick(now)
	if wasStageI && n.b.stage == 2 {
		n.met.onTransition(simnet.KindBuyer)
	}
	return n.buf.drain()
}

// Idle reports whether the node has no pending work.
func (n *BuyerNode) Idle() bool { return n.b.idle() }

// MatchedTo returns the seller the buyer believes she holds, or
// market.Unmatched.
func (n *BuyerNode) MatchedTo() int { return n.b.matchedTo }

// SellerNode is a transport-agnostic seller protocol endpoint.
type SellerNode struct {
	s   *sellerAgent
	buf *sendBuffer
	met *msgMeter
	fl  *trace.Flight
}

// NewSellerNode creates the endpoint for seller id.
func NewSellerNode(id int, m *market.Market, cfg Config) *SellerNode {
	cfg = cfg.withDefaults(m.M(), m.N())
	buf := &sendBuffer{}
	met := newMsgMeter(cfg.Metrics)
	return &SellerNode{
		s:   newSellerAgent(id, m, cfg, defaultSchedule(m.M(), m.N()), met.meter(buf)),
		buf: buf,
		met: met,
		fl:  cfg.Flight,
	}
}

// Deliver feeds one inbound message to the state machine; its agent.handle
// span is a trace root.
func (n *SellerNode) Deliver(msg simnet.Message) {
	n.DeliverTraced(msg, trace.SpanContext{})
}

// DeliverTraced is Deliver under an explicit trace parent, recording one
// agent.handle span per message when the node carries a Flight.
func (n *SellerNode) DeliverTraced(msg simnet.Message, parent trace.SpanContext) {
	h := n.fl.Start(parent, "agent.handle")
	n.met.onDeliver(msg)
	n.s.handle(msg)
	if h.Active() {
		h.Annotate("to=" + msg.To.String() + " type=" + PayloadName(msg.Payload))
	}
	h.End()
}

// Tick advances the node to the given slot and returns its outbound
// messages.
func (n *SellerNode) Tick(now int) ([]simnet.Message, error) {
	wasStageI := n.s.stage == 1
	if err := n.s.tick(now); err != nil {
		return nil, err
	}
	if wasStageI && n.s.stage == 2 {
		n.met.onTransition(simnet.KindSeller)
	}
	return n.buf.drain(), nil
}

// Quiescent reports whether the seller has finished her invitation list.
func (n *SellerNode) Quiescent() bool { return n.s.quiescent() }

// Coalition returns the seller's current matched buyers, sorted.
func (n *SellerNode) Coalition() []int { return n.s.coalitionMembers() }
