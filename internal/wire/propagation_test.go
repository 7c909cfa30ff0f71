package wire

import (
	"testing"

	"specmatch/internal/agent"
	"specmatch/internal/market"
	"specmatch/internal/trace"
)

// verifyTraceTree asserts the structural invariants every runtime's dump
// must satisfy: spans exist, they all belong to one trace with exactly one
// root, every non-zero parent resolves inside the dump (no orphans — the
// acceptance bar specstrace -check enforces), and the expected span names
// all appear.
func verifyTraceTree(t *testing.T, spans []trace.Span, wantNames []string) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("flight recorder captured no spans")
	}
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	traces := make(map[trace.TraceID]int)
	roots := 0
	for _, s := range spans {
		byID[s.ID] = s
		traces[s.Trace]++
		if s.Parent.IsZero() {
			roots++
		}
	}
	if len(traces) != 1 {
		t.Errorf("spans split across %d traces, want one causal tree", len(traces))
	}
	if roots != 1 {
		t.Errorf("%d root spans, want exactly one", roots)
	}
	for _, s := range spans {
		if s.Parent.IsZero() {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("orphan: %s (span %s) references missing parent %s", s.Name, s.ID, s.Parent)
			continue
		}
		if p.Trace != s.Trace {
			t.Errorf("%s crosses traces: parent %s is in %s", s.Name, p.Name, p.Trace)
		}
	}
	have := make(map[string]bool)
	for _, s := range spans {
		have[s.Name] = true
	}
	for _, name := range wantNames {
		if !have[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// TestTracePropagationAcrossRuntimes runs the same market through both
// runtimes with a flight recorder attached and checks each produces one
// coherent trace tree — and bit-identical results to the untraced run, since
// spans must never perturb the protocol.
func TestTracePropagationAcrossRuntimes(t *testing.T) {
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	acfg := agent.Config{BuyerRule: agent.BuyerRuleII, SellerRule: agent.SellerProbabilistic}

	t.Run("sequential", func(t *testing.T) {
		plain, err := agent.Run(m, acfg)
		if err != nil {
			t.Fatal(err)
		}
		fl := trace.NewFlight(1 << 14)
		traced := acfg
		traced.Flight = fl
		res, err := agent.Run(m, traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Welfare != plain.Welfare || !res.Matching.Equal(plain.Matching) {
			t.Errorf("tracing changed the outcome: welfare %v vs %v", res.Welfare, plain.Welfare)
		}
		verifyTraceTree(t, fl.Snapshot(), []string{"agent.run", "agent.handle", "simnet.slot"})
	})

	t.Run("tcp", func(t *testing.T) {
		plain, err := MatchOverTCP(m, NodeConfig{Agent: acfg}, HubConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Hub and nodes share one in-process flight here, so the merged view
		// a multi-process deployment gets from merging per-process dumps is
		// what this single snapshot holds: node-side wire.tick spans parented
		// on hub-side wire.slot spans via Tick.Trace.
		fl := trace.NewFlight(1 << 14)
		report, err := MatchOverTCP(m, NodeConfig{Agent: acfg, Flight: fl}, HubConfig{Flight: fl})
		if err != nil {
			t.Fatal(err)
		}
		if report.Welfare != plain.Welfare || !report.Matching.Equal(plain.Matching) {
			t.Errorf("tracing changed the outcome: welfare %v vs %v", report.Welfare, plain.Welfare)
		}
		verifyTraceTree(t, fl.Snapshot(), []string{
			"wire.serve", "wire.slot", "wire.send", "wire.recv", "wire.tick", "agent.handle",
		})
	})
}

// TestNodeFlightDefaultsFromAgent: setting only Agent.Flight must trace the
// whole node (withDefaults promotes it), so either knob works.
func TestNodeFlightDefaultsFromAgent(t *testing.T) {
	fl := trace.NewFlight(1 << 12)
	cfg := NodeConfig{Agent: agent.Config{Flight: fl}}
	cfg = cfg.withDefaults()
	if cfg.Flight != fl {
		t.Fatal("NodeConfig.withDefaults must adopt Agent.Flight")
	}
}
