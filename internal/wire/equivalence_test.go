package wire

import (
	"reflect"
	"testing"

	"specmatch/internal/agent"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/stability"
)

// msgCounts collects the agent layer's per-type message metrics plus the
// stage-transition counters from a registry, keyed for direct comparison.
func msgCounts(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, 2*10+2)
	for _, name := range agent.PayloadNames() {
		out["sent."+name] = reg.CounterValue("agent.sent." + name)
		out["delivered."+name] = reg.CounterValue("agent.delivered." + name)
	}
	out["transitions.buyer"] = reg.CounterValue("agent.transitions.buyer")
	out["transitions.seller"] = reg.CounterValue("agent.transitions.seller")
	return out
}

// TestRuntimeEquivalence runs the same seeded markets through both protocol
// runtimes — the sequential simulator (agent.Run) and an in-process TCP
// deployment (MatchOverTCP) — and asserts they produce identical final
// matchings, slot counts, exact welfare floats, relayed-message totals and
// per-type message-count metrics. The runtimes share the buyer/seller state
// machines, and on a reliable network the hub's next-slot relay matches
// simnet's one-slot latency exactly, so any divergence in either the outcome
// or the traffic profile is a transport bug, not protocol noise.
//
// MatchOverTCP runs every participant on its own goroutine with its own
// connection, and all of them share one metrics registry. Under -race this
// test is therefore the evidence that agents share no state: the TCP run
// reproduces the sequential one with no coordination beyond the messages.
func TestRuntimeEquivalence(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		mkCfg := func(reg *obs.Registry) agent.Config {
			return agent.Config{
				BuyerRule:  agent.BuyerRuleII,
				SellerRule: agent.SellerProbabilistic,
				Metrics:    reg,
			}
		}

		regSeq := obs.NewRegistry()
		seq, err := agent.Run(m, mkCfg(regSeq))
		if err != nil {
			t.Fatalf("seed %d: sequential run: %v", seed, err)
		}
		// All TCP nodes share one registry, so the deployment's aggregate
		// agent.* counters are directly comparable to the simulated run's.
		regTCP := obs.NewRegistry()
		report, err := MatchOverTCP(m, NodeConfig{Agent: mkCfg(regTCP)}, HubConfig{})
		if err != nil {
			t.Fatalf("seed %d: TCP run: %v", seed, err)
		}

		if !seq.Matching.Equal(report.Matching) {
			t.Errorf("seed %d: TCP matching %v != sequential %v", seed, report.Matching, seq.Matching)
		}
		if report.Slots != seq.Slots || report.Welfare != seq.Welfare {
			t.Errorf("seed %d: TCP slots/welfare %d/%v != sequential %d/%v",
				seed, report.Slots, report.Welfare, seq.Slots, seq.Welfare)
		}
		if report.Messages != seq.Net.Sent {
			t.Errorf("seed %d: TCP relayed %d messages, sequential sent %d", seed, report.Messages, seq.Net.Sent)
		}
		if v := stability.CheckInterferenceFree(m, seq.Matching); len(v) != 0 {
			t.Errorf("seed %d: interference %v", seed, v)
		}

		want := msgCounts(regSeq)
		if got := msgCounts(regTCP); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: TCP message metrics diverge\n got %v\nwant %v", seed, got, want)
		}

		// Sanity: the protocol actually exchanged messages, so the metric
		// comparison above compared real traffic rather than all-zeros.
		if want["sent.propose"] == 0 || want["delivered.propose"] == 0 {
			t.Errorf("seed %d: no proposals metered: %v", seed, want)
		}
	}
}
