package wire

import (
	"fmt"
	"net"
	"time"

	"specmatch/internal/agent"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/simnet"
	"specmatch/internal/trace"
)

// NodeConfig tunes a node process.
type NodeConfig struct {
	// Agent configures the protocol state machine (transition rules etc.);
	// its network settings are ignored — TCP is the network. Its Metrics and
	// Events fields are honored: the wrapped state machine reports the same
	// agent.* metrics as the simulated runtime.
	Agent agent.Config
	// IOTimeout bounds each read/write; zero means 10s.
	IOTimeout time.Duration

	// Metrics, when non-nil, receives wire-level node instrumentation:
	// encode/decode failures (wire.errors.encode, wire.errors.decode) and
	// I/O deadline failures (wire.errors.io). Nil disables it.
	Metrics *obs.Registry

	// Flight, when non-nil, records node-side causal spans: wire.tick per
	// hub slot (parented on the Tick frame's traceparent, so they join the
	// hub's trace), agent.handle per delivered message, and wire.send /
	// wire.recv per frame. Defaults to Agent.Flight, so setting either knob
	// traces the whole node.
	Flight *trace.Flight
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.IOTimeout == 0 {
		c.IOTimeout = 10 * time.Second
	}
	if c.Flight == nil {
		c.Flight = c.Agent.Flight
	}
	return c
}

// RunBuyerNode dials the hub and runs buyer j's state machine until the hub
// announces completion. It returns the seller the buyer ended up holding,
// or market.Unmatched.
func RunBuyerNode(addr string, j int, m *market.Market, cfg NodeConfig) (int, error) {
	cfg = cfg.withDefaults()
	agentCfg := cfg.Agent
	agentCfg.Flight = cfg.Flight
	node := agent.NewBuyerNode(j, m, agentCfg)
	final := Final{Node: NodeRef{Kind: "buyer", Index: j}}
	err := runNode(addr, final.Node, cfg.IOTimeout, cfg.Flight, newNodeMetrics(cfg.Metrics),
		func(msg simnet.Message, sc trace.SpanContext) { node.DeliverTraced(msg, sc) },
		func(now int) ([]simnet.Message, bool, error) {
			out := node.Tick(now)
			return out, node.Idle(), nil
		},
		func() Final {
			final.MatchedTo = node.MatchedTo()
			return final
		},
	)
	if err != nil {
		return market.Unmatched, err
	}
	return node.MatchedTo(), nil
}

// RunSellerNode dials the hub and runs seller i's state machine until the
// hub announces completion. It returns the seller's final coalition.
func RunSellerNode(addr string, i int, m *market.Market, cfg NodeConfig) ([]int, error) {
	cfg = cfg.withDefaults()
	agentCfg := cfg.Agent
	agentCfg.Flight = cfg.Flight
	node := agent.NewSellerNode(i, m, agentCfg)
	final := Final{Node: NodeRef{Kind: "seller", Index: i}}
	err := runNode(addr, final.Node, cfg.IOTimeout, cfg.Flight, newNodeMetrics(cfg.Metrics),
		func(msg simnet.Message, sc trace.SpanContext) { node.DeliverTraced(msg, sc) },
		func(now int) ([]simnet.Message, bool, error) {
			out, err := node.Tick(now)
			return out, node.Quiescent(), err
		},
		func() Final {
			final.Coalition = node.Coalition()
			return final
		},
	)
	if err != nil {
		return nil, err
	}
	return node.Coalition(), nil
}

// runNode is the shared hub-side loop of both node kinds.
func runNode(
	addr string,
	self NodeRef,
	timeout time.Duration,
	fl *trace.Flight,
	nm *nodeMetrics,
	deliver func(simnet.Message, trace.SpanContext),
	tick func(now int) (out []simnet.Message, idle bool, err error),
	finalState func() Final,
) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("wire: node dial: %w", err)
	}
	defer func() { _ = raw.Close() }()
	// cur parents the node's frame spans: the current wire.tick span during
	// a slot, zero outside one. The loop is single-goroutine.
	var cur trace.SpanContext
	nc := &conn{c: raw, timeout: timeout, ioErrs: nm.ioErrCounter(),
		fl: fl, parent: func() trace.SpanContext { return cur }}

	if err := nc.write(frame{Hello: &Hello{Node: self}}); err != nil {
		return fmt.Errorf("wire: node hello: %w", err)
	}
	for {
		f, err := nc.read()
		if err != nil {
			return fmt.Errorf("wire: node read: %w", err)
		}
		switch {
		case f.Tick != nil:
			// Parent this slot's work on the hub's wire.slot span when the
			// Tick carries one, so every node's spans join the hub's trace.
			parent, _ := trace.ParseTraceparent(f.Tick.Trace)
			tickSpan := fl.Start(parent, "wire.tick")
			cur = tickSpan.Context()
			for _, wm := range f.Tick.Inbox {
				msg, err := DecodeMsg(wm)
				if err != nil {
					nm.onDecodeError()
					return err
				}
				// A message annotated with its sender's span context is
				// handled under that context; otherwise under the tick.
				msgParent := cur
				if sc, ok := trace.ParseTraceparent(wm.Trace); ok {
					msgParent = sc
				}
				deliver(msg, msgParent)
			}
			out, idle, err := tick(f.Tick.Slot)
			if err != nil {
				return err
			}
			outTrace := ""
			if tickSpan.Active() {
				outTrace = trace.FormatTraceparent(cur)
			}
			end := EndSlot{Idle: idle}
			for _, msg := range out {
				wm, err := EncodeMsg(msg)
				if err != nil {
					nm.onEncodeError()
					return err
				}
				wm.Trace = outTrace
				end.Outbox = append(end.Outbox, wm)
			}
			if err := nc.write(frame{EndSlot: &end}); err != nil {
				return fmt.Errorf("wire: node end-slot: %w", err)
			}
			if tickSpan.Active() {
				tickSpan.Annotate("node=" + self.Kind + "#" + itoa(self.Index) +
					" slot=" + itoa(f.Tick.Slot) + " in=" + itoa(len(f.Tick.Inbox)) + " out=" + itoa(len(end.Outbox)))
			}
			tickSpan.End()
			cur = trace.SpanContext{}
		case f.Done != nil:
			final := finalState()
			if err := nc.write(frame{Final: &final}); err != nil {
				return fmt.Errorf("wire: node final: %w", err)
			}
			return nil
		default:
			return fmt.Errorf("wire: node received unexpected frame")
		}
	}
}

// MatchOverTCP runs the full market over real localhost TCP: it starts a
// hub and one goroutine per participant, each with its own connection, and
// returns the hub's report. This is the integration entry point; for
// multi-process or multi-host deployment use NewHub, RunBuyerNode and
// RunSellerNode directly (see cmd/specnode).
func MatchOverTCP(m *market.Market, nodeCfg NodeConfig, hubCfg HubConfig) (HubReport, error) {
	hub, err := NewHub(m, hubCfg)
	if err != nil {
		return HubReport{}, err
	}
	addr := hub.Addr()

	type nodeErr struct {
		ref NodeRef
		err error
	}
	errs := make(chan nodeErr, m.M()+m.N())
	for j := 0; j < m.N(); j++ {
		go func(j int) {
			_, err := RunBuyerNode(addr, j, m, nodeCfg)
			errs <- nodeErr{ref: NodeRef{Kind: "buyer", Index: j}, err: err}
		}(j)
	}
	for i := 0; i < m.M(); i++ {
		go func(i int) {
			_, err := RunSellerNode(addr, i, m, nodeCfg)
			errs <- nodeErr{ref: NodeRef{Kind: "seller", Index: i}, err: err}
		}(i)
	}

	report, serveErr := hub.Serve(m)
	var firstNodeErr error
	for k := 0; k < m.M()+m.N(); k++ {
		ne := <-errs
		if ne.err != nil && firstNodeErr == nil {
			firstNodeErr = fmt.Errorf("wire: node %v: %w", ne.ref, ne.err)
		}
	}
	if serveErr != nil {
		return report, serveErr
	}
	return report, firstNodeErr
}
