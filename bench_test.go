package specmatch_test

import (
	"testing"

	"specmatch"
	"specmatch/internal/agent"
	"specmatch/internal/core"
	"specmatch/internal/experiment"
	"specmatch/internal/market"
	"specmatch/internal/mwis"
	"specmatch/internal/optimal"
	"specmatch/internal/wire"
)

// Figure benchmarks. Each iteration regenerates one full panel of the
// paper's evaluation through the experiment harness and reports the panel's
// headline quantity as a custom metric, so `go test -bench=.` both times the
// harness and reprints the paper's numbers. EXPERIMENTS.md records the
// full-replication series produced by cmd/specbench.

// benchFigure runs one catalog experiment per iteration.
func benchFigure(b *testing.B, id string, reps int, metric func(*experiment.Figure) (string, float64)) {
	b.Helper()
	spec, ok := experiment.Catalog()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var fig *experiment.Figure
	for n := 0; n < b.N; n++ {
		var err error
		fig, err = spec.Run(experiment.RunConfig{Seed: 1, Reps: reps})
		if err != nil {
			b.Fatal(err)
		}
	}
	if fig != nil && metric != nil {
		name, v := metric(fig)
		b.ReportMetric(v, name)
	}
}

// ratioMetric reports mean proposed/optimal welfare across a Fig. 6 panel —
// the paper's headline "more than 90% of the optimal social welfare".
func ratioMetric(fig *experiment.Figure) (string, float64) {
	var sum float64
	for k := range fig.Points {
		sum += fig.Value(k, experiment.SeriesProposed) / fig.Value(k, experiment.SeriesOptimal)
	}
	return "ratio", sum / float64(len(fig.Points))
}

// finalWelfareMetric reports total welfare at the last sweep point.
func finalWelfareMetric(fig *experiment.Figure) (string, float64) {
	return "welfare", fig.Value(len(fig.Points)-1, experiment.SeriesPhase2)
}

// stageIRoundsMetric reports Stage I rounds at the last sweep point.
func stageIRoundsMetric(fig *experiment.Figure) (string, float64) {
	return "rounds", fig.Value(len(fig.Points)-1, experiment.SeriesStageI)
}

func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a", 10, ratioMetric) }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b", 10, ratioMetric) }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "6c", 10, ratioMetric) }
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a", 3, finalWelfareMetric) }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b", 3, finalWelfareMetric) }
func BenchmarkFig7c(b *testing.B) { benchFigure(b, "7c", 3, finalWelfareMetric) }
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "8a", 3, stageIRoundsMetric) }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "8b", 3, stageIRoundsMetric) }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "8c", 3, stageIRoundsMetric) }

func BenchmarkAblationMWIS(b *testing.B) {
	benchFigure(b, "ablation-mwis", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "gwmin/exact", last.Values["gwmin"].Mean / last.Values["exact"].Mean
	})
}

func BenchmarkAblationStage2(b *testing.B) {
	benchFigure(b, "ablation-stage2", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "stage2gain", last.Values["full"].Mean - last.Values["stage I only"].Mean
	})
}

func BenchmarkAblationAsync(b *testing.B) {
	benchFigure(b, "ablation-async", 2, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "slots-saved", last.Values["default slots"].Mean - last.Values["rule-ii slots"].Mean
	})
}

func BenchmarkAblationSwap(b *testing.B) {
	benchFigure(b, "ablation-swap", 5, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "swapgain", last.Values["+ swaps"].Mean - last.Values["two-stage"].Mean
	})
}

func BenchmarkAblationAuction(b *testing.B) {
	benchFigure(b, "ablation-auction", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "match/auction", last.Values["matching"].Mean / last.Values["auction"].Mean
	})
}

func BenchmarkAblationOnline(b *testing.B) {
	benchFigure(b, "ablation-online", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "inc/fresh", last.Values["incremental"].Mean / last.Values["fresh re-run"].Mean
	})
}

func BenchmarkAblationFaults(b *testing.B) {
	benchFigure(b, "ablation-faults", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "lossy/reliable", last.Values["welfare"].Mean / last.Values["welfare (reliable)"].Mean
	})
}

// Component micro-benchmarks.

func benchMarket(b *testing.B, sellers, buyers int) *market.Market {
	b.Helper()
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMatchSmall(b *testing.B) {
	m := benchMarket(b, 4, 20)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := core.Run(m, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchMedium(b *testing.B) {
	m := benchMarket(b, 10, 200)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := core.Run(m, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchLarge(b *testing.B) {
	m := benchMarket(b, 16, 500)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := core.Run(m, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Engine-configuration benchmarks at the Fig. 7(b)/8(b) scale (M = 16,
// N = 500): coalition cache on vs off. Both configurations produce
// bit-identical output, so the delta is the cache's work avoidance.
func benchEngine(b *testing.B, opts core.Options) {
	b.Helper()
	m := benchMarket(b, 16, 500)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := core.Run(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineUncached(b *testing.B) {
	benchEngine(b, core.Options{DisableCoalitionCache: true})
}

func BenchmarkEngineCached(b *testing.B) {
	benchEngine(b, core.Options{})
}

func BenchmarkMatchAsync(b *testing.B) {
	m := benchMarket(b, 5, 40)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := specmatch.MatchAsync(m, specmatch.AsyncConfig{
			BuyerRule:  specmatch.BuyerRuleII,
			SellerRule: specmatch.SellerProbabilistic,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchOverTCP(b *testing.B) {
	m := benchMarket(b, 3, 12)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := wire.MatchOverTCP(m, wire.NodeConfig{
			Agent: agent.Config{BuyerRule: agent.BuyerRuleII, SellerRule: agent.SellerProbabilistic},
		}, wire.HubConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalFig6Scale(b *testing.B) {
	m := benchMarket(b, 6, 10)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := optimal.Solve(m, optimal.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMWISGreedy(b *testing.B) {
	m := benchMarket(b, 1, 300)
	weights := make([]float64, m.N())
	candidates := make([]int, m.N())
	for j := range weights {
		weights[j] = m.Price(0, j)
		candidates[j] = j
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := mwis.Solve(mwis.GWMIN, m.Graph(0), weights, candidates); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarketGeneration(b *testing.B) {
	for n := 0; n < b.N; n++ {
		if _, err := market.Generate(market.Config{Sellers: 10, Buyers: 300, Seed: int64(n)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBundle(b *testing.B) {
	benchFigure(b, "ablation-bundle", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "gap", last.Values["bundle optimum"].Mean - last.Values["matching (bundle value)"].Mean
	})
}

func BenchmarkAblationRadio(b *testing.B) {
	benchFigure(b, "ablation-radio", 5, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "ratio", last.Values["welfare"].Mean / last.Values["optimal"].Mean
	})
}

func BenchmarkAblationOutage(b *testing.B) {
	benchFigure(b, "ablation-outage", 3, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "outage", last.Values["matching outage"].Mean
	})
}

func BenchmarkAblationThresholds(b *testing.B) {
	benchFigure(b, "ablation-thresholds", 2, func(fig *experiment.Figure) (string, float64) {
		last := fig.Points[len(fig.Points)-1]
		return "welfare-ratio", last.Values["welfare ratio"].Mean
	})
}
