package agent

import (
	"specmatch/internal/obs"
	"specmatch/internal/simnet"
)

// msgMeter holds the agent layer's prebuilt observability handles: one
// sent/delivered counter pair per protocol message type, stage-transition
// counters, and the slots-to-convergence gauge. The maps are built once and
// only read afterwards, and the counters themselves are atomic, so nodes on
// separate goroutines may share one registry. A nil *msgMeter disables
// everything at the cost of one pointer check per call.
type msgMeter struct {
	sent      map[string]*obs.Counter // agent.sent.<type>
	delivered map[string]*obs.Counter // agent.delivered.<type>

	buyerTransitions  *obs.Counter // agent.transitions.buyer
	sellerTransitions *obs.Counter // agent.transitions.seller
	slots             *obs.Gauge   // agent.slots
	runs              *obs.Counter // agent.runs
}

func newMsgMeter(reg *obs.Registry) *msgMeter {
	if reg == nil {
		return nil
	}
	names := PayloadNames()
	mm := &msgMeter{
		sent:              make(map[string]*obs.Counter, len(names)),
		delivered:         make(map[string]*obs.Counter, len(names)),
		buyerTransitions:  reg.Counter("agent.transitions.buyer"),
		sellerTransitions: reg.Counter("agent.transitions.seller"),
		slots:             reg.Gauge("agent.slots"),
		runs:              reg.Counter("agent.runs"),
	}
	for _, name := range names {
		mm.sent[name] = reg.Counter("agent.sent." + name)
		mm.delivered[name] = reg.Counter("agent.delivered." + name)
	}
	return mm
}

// onSend counts one message handed to the transport.
func (mm *msgMeter) onSend(msg simnet.Message) {
	if mm == nil {
		return
	}
	mm.sent[PayloadName(msg.Payload)].Inc()
}

// onDeliver counts one message handed to a recipient state machine.
func (mm *msgMeter) onDeliver(msg simnet.Message) {
	if mm == nil {
		return
	}
	mm.delivered[PayloadName(msg.Payload)].Inc()
}

// onTransition counts one agent's Stage I → Stage II transition.
func (mm *msgMeter) onTransition(kind simnet.Kind) {
	if mm == nil {
		return
	}
	if kind == simnet.KindBuyer {
		mm.buyerTransitions.Inc()
	} else {
		mm.sellerTransitions.Inc()
	}
}

// onDone records the run's slots-to-convergence.
func (mm *msgMeter) onDone(slots int) {
	if mm == nil {
		return
	}
	mm.runs.Inc()
	mm.slots.Set(int64(slots))
}

// meteredSender wraps a netSender, counting every send by payload type.
type meteredSender struct {
	inner netSender
	met   *msgMeter
}

// Send implements netSender.
func (ms *meteredSender) Send(msg simnet.Message) {
	ms.met.onSend(msg)
	ms.inner.Send(msg)
}

// meter wraps sender with send metering when observability is on; with a nil
// meter it returns the sender untouched, keeping the disabled path free.
func (mm *msgMeter) meter(sender netSender) netSender {
	if mm == nil {
		return sender
	}
	return &meteredSender{inner: sender, met: mm}
}
