// Package wire runs the asynchronous matching protocol over real TCP
// connections: a hub process coordinates slots (the paper's time-slot model
// needs a clock, and a star topology is the standard way to provide one in
// testbeds), and one node process per buyer and seller runs the same state
// machines the simulators use (agent.BuyerNode / agent.SellerNode). Frames
// are length-prefixed JSON, so nodes could be reimplemented in any language
// against this codec.
//
// The slot protocol between hub and nodes:
//
//	node → hub:  hello{kind, index}
//	hub  → node: tick{slot, inbox}
//	node → hub:  end-slot{outbox, idle}
//	hub  → node: done{}            — when all nodes idle and nothing queued
//	node → hub:  final{matched/coalition}
//
// Message loss and delay are properties of real networks rather than
// injected faults here; the protocol's retransmission logic still applies
// because the state machines are shared with the simulated runtime.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"specmatch/internal/agent"
	"specmatch/internal/simnet"
)

// MaxFrame bounds accepted frame sizes (1 MiB); a peer announcing more is
// broken or hostile.
const MaxFrame = 1 << 20

// WriteFrame writes v as a length-prefixed JSON frame.
func WriteFrame(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	if len(data) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit %d", len(data), MaxFrame)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(data)))
	if _, err := w.Write(prefix[:]); err != nil {
		return fmt.Errorf("wire: write prefix: %w", err)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("wire: write body: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed JSON frame into v.
func ReadFrame(r io.Reader, v any) error {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return fmt.Errorf("wire: read prefix: %w", err)
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size > MaxFrame {
		return fmt.Errorf("wire: announced frame of %d bytes exceeds limit %d", size, MaxFrame)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return fmt.Errorf("wire: read body: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// NodeRef addresses an agent on the wire.
type NodeRef struct {
	Kind  string `json:"kind"` // "buyer" or "seller"
	Index int    `json:"index"`
}

func toRef(id simnet.NodeID) NodeRef {
	kind := "buyer"
	if id.Kind == simnet.KindSeller {
		kind = "seller"
	}
	return NodeRef{Kind: kind, Index: id.Index}
}

func fromRef(ref NodeRef) (simnet.NodeID, error) {
	switch ref.Kind {
	case "buyer":
		return simnet.Buyer(ref.Index), nil
	case "seller":
		return simnet.Seller(ref.Index), nil
	default:
		return simnet.NodeID{}, fmt.Errorf("wire: unknown node kind %q", ref.Kind)
	}
}

// WireMsg is a protocol message in transit between agents, with the payload
// discriminated by Type.
type WireMsg struct {
	From    NodeRef         `json:"from"`
	To      NodeRef         `json:"to"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`

	// Trace is the sender's span context as a W3C traceparent, set when the
	// sending node has tracing enabled; the receiving node parents the
	// message's agent.handle span under it, stitching one causal tree across
	// processes. Empty when tracing is off; decoders ignore unknown values.
	Trace string `json:"trace,omitempty"`
}

// payloadCodec maps agent payload types to wire names and back.
var _payloadDecoders = map[string]func(json.RawMessage) (any, error){
	"propose":           decodeAs[agent.Propose],
	"proposal-decision": decodeAs[agent.ProposalDecision],
	"evict":             decodeAs[agent.Evict],
	"digest":            decodeAs[agent.Digest],
	"transfer-apply":    decodeAs[agent.TransferApply],
	"transfer-decision": decodeAs[agent.TransferDecision],
	"invite":            decodeAs[agent.Invite],
	"invite-response":   decodeAs[agent.InviteResponse],
	"leave":             decodeAs[agent.Leave],
	"seller-transition": decodeAs[agent.SellerTransition],
}

func decodeAs[T any](raw json.RawMessage) (any, error) {
	var v T
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func payloadName(p any) (string, error) {
	switch p.(type) {
	case agent.Propose:
		return "propose", nil
	case agent.ProposalDecision:
		return "proposal-decision", nil
	case agent.Evict:
		return "evict", nil
	case agent.Digest:
		return "digest", nil
	case agent.TransferApply:
		return "transfer-apply", nil
	case agent.TransferDecision:
		return "transfer-decision", nil
	case agent.Invite:
		return "invite", nil
	case agent.InviteResponse:
		return "invite-response", nil
	case agent.Leave:
		return "leave", nil
	case agent.SellerTransition:
		return "seller-transition", nil
	default:
		return "", fmt.Errorf("wire: unregistered payload type %T", p)
	}
}

// EncodeMsg converts an in-memory protocol message to its wire form.
func EncodeMsg(msg simnet.Message) (WireMsg, error) {
	name, err := payloadName(msg.Payload)
	if err != nil {
		return WireMsg{}, err
	}
	raw, err := json.Marshal(msg.Payload)
	if err != nil {
		return WireMsg{}, fmt.Errorf("wire: payload encode: %w", err)
	}
	return WireMsg{From: toRef(msg.From), To: toRef(msg.To), Type: name, Payload: raw}, nil
}

// DecodeMsg converts a wire message back to its in-memory form.
func DecodeMsg(wm WireMsg) (simnet.Message, error) {
	decoder, ok := _payloadDecoders[wm.Type]
	if !ok {
		return simnet.Message{}, fmt.Errorf("wire: unknown message type %q", wm.Type)
	}
	payload, err := decoder(wm.Payload)
	if err != nil {
		return simnet.Message{}, fmt.Errorf("wire: payload decode (%s): %w", wm.Type, err)
	}
	from, err := fromRef(wm.From)
	if err != nil {
		return simnet.Message{}, err
	}
	to, err := fromRef(wm.To)
	if err != nil {
		return simnet.Message{}, err
	}
	return simnet.Message{From: from, To: to, Payload: payload}, nil
}

// Control frames between hub and nodes.

// Hello registers a node with the hub.
type Hello struct {
	Node NodeRef `json:"node"`
}

// Tick opens a slot and delivers the node's inbox.
type Tick struct {
	Slot  int       `json:"slot"`
	Inbox []WireMsg `json:"inbox,omitempty"`

	// Trace carries the hub's wire.slot span context as a W3C traceparent so
	// node-side spans for this slot join the hub's trace. Empty when the hub
	// runs without tracing.
	Trace string `json:"trace,omitempty"`
}

// EndSlot closes a node's slot with its outbox and quiescence flag.
type EndSlot struct {
	Outbox []WireMsg `json:"outbox,omitempty"`
	Idle   bool      `json:"idle"`
}

// Done tells nodes the market has quiesced.
type Done struct{}

// Final is a node's closing state report.
type Final struct {
	Node NodeRef `json:"node"`
	// MatchedTo is the buyer's believed seller (buyers only).
	MatchedTo int `json:"matched_to,omitempty"`
	// Coalition is the seller's matched buyers (sellers only).
	Coalition []int `json:"coalition,omitempty"`
}

// frame is the hub-node transport envelope: exactly one field is set.
type frame struct {
	Hello   *Hello   `json:"hello,omitempty"`
	Tick    *Tick    `json:"tick,omitempty"`
	EndSlot *EndSlot `json:"end_slot,omitempty"`
	Done    *Done    `json:"done,omitempty"`
	Final   *Final   `json:"final,omitempty"`
}

// itoa is strconv.Itoa under a name short enough for span-attr call sites.
func itoa(v int) string { return strconv.Itoa(v) }

// frameKind names a frame's populated arm, for span annotations.
func frameKind(f frame) string {
	switch {
	case f.Hello != nil:
		return "hello"
	case f.Tick != nil:
		return "tick"
	case f.EndSlot != nil:
		return "end_slot"
	case f.Done != nil:
		return "done"
	case f.Final != nil:
		return "final"
	default:
		return "empty"
	}
}
