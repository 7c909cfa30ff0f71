package core_test

import (
	"strings"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/trace"
)

// TestRunSpanTree: a traced engine run yields one trace rooted at core.run,
// with every round a child of the root and every solve a child of a round —
// and identical results to the untraced run.
func TestRunSpanTree(t *testing.T) {
	m := generate(t, market.Config{Sellers: 4, Buyers: 16, Seed: 11})
	plain, err := core.Run(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fl := trace.NewFlight(1 << 14)
	res, err := core.Run(m, core.Options{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare != plain.Welfare || !res.Matching.Equal(plain.Matching) {
		t.Fatalf("tracing changed the outcome: welfare %v vs %v", res.Welfare, plain.Welfare)
	}

	spans := fl.Snapshot()
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rounds, solves int
	for _, s := range spans {
		switch s.Name {
		case "core.run":
			if !s.Parent.IsZero() {
				t.Errorf("core.run must be the root, has parent %s", s.Parent)
			}
			for _, want := range []string{"rounds=", "matched=", "welfare="} {
				if !strings.Contains(s.Attrs, want) {
					t.Errorf("core.run attrs %q missing %s", s.Attrs, want)
				}
			}
		case "core.round":
			rounds++
			if p, ok := byID[s.Parent]; !ok || p.Name != "core.run" {
				t.Errorf("core.round parent = %v, want core.run", s.Parent)
			}
			if !strings.Contains(s.Attrs, "stage=") || !strings.Contains(s.Attrs, "round=") || !strings.Contains(s.Attrs, "messages=") {
				t.Errorf("core.round attrs %q missing stage/round/messages", s.Attrs)
			}
		case "core.solve":
			solves++
			if p, ok := byID[s.Parent]; !ok || p.Name != "core.round" {
				t.Errorf("core.solve parent = %v, want core.round", s.Parent)
			}
			if !strings.Contains(s.Attrs, "seller=") || !strings.Contains(s.Attrs, "src=") {
				t.Errorf("core.solve attrs %q missing seller/src", s.Attrs)
			}
		default:
			t.Errorf("unexpected span name %q in a core run", s.Name)
		}
	}
	if rounds == 0 || solves == 0 {
		t.Errorf("got %d rounds and %d solves, want both > 0", rounds, solves)
	}
	if int64(rounds) != int64(res.TotalRounds()) {
		t.Errorf("%d core.round spans, result reports %d rounds", rounds, res.TotalRounds())
	}
}

// TestOnlineStepSpanChain: StepTraced parents the repair run under the
// caller's context, so a service request chains online.step -> core.dirty
// (the incremental repair pass) -> core.round without gaps, and with
// DisableIncremental the same shape via core.repair instead.
func TestOnlineStepSpanChain(t *testing.T) {
	for _, tc := range []struct {
		name       string
		disable    bool
		repairSpan string
	}{
		{"incremental", false, "core.dirty"},
		{"full", true, "core.repair"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := generate(t, market.Config{Sellers: 3, Buyers: 12, Seed: 5})
			fl := trace.NewFlight(1 << 14)
			s, err := online.NewSession(m, core.Options{Flight: fl, DisableIncremental: tc.disable})
			if err != nil {
				t.Fatal(err)
			}
			root := fl.Start(trace.SpanContext{}, "test.root")
			if _, err := s.StepTraced(online.Event{Arrive: []int{0, 1, 2, 3}}, root.Context()); err != nil {
				t.Fatal(err)
			}
			root.End()

			spans := fl.Snapshot()
			byID := make(map[trace.SpanID]trace.Span, len(spans))
			for _, sp := range spans {
				byID[sp.ID] = sp
			}
			parentName := func(sp trace.Span) string { return byID[sp.Parent].Name }
			var sawStep, sawRepair bool
			for _, sp := range spans {
				switch sp.Name {
				case "online.step":
					sawStep = true
					if parentName(sp) != "test.root" {
						t.Errorf("online.step parent = %q, want test.root", parentName(sp))
					}
				case tc.repairSpan:
					sawRepair = true
					if parentName(sp) != "online.step" {
						t.Errorf("%s parent = %q, want online.step", tc.repairSpan, parentName(sp))
					}
				case "core.round":
					if parentName(sp) != tc.repairSpan {
						t.Errorf("core.round parent = %q, want %s", parentName(sp), tc.repairSpan)
					}
				}
			}
			if !sawStep || !sawRepair {
				t.Errorf("missing spans: step=%v repair(%s)=%v", sawStep, tc.repairSpan, sawRepair)
			}
		})
	}
}
