package online

import (
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// benchmarkTrace replays gen's deterministic 64-step trace (seed 99) through
// a fresh session per iteration, built with opts.
func benchmarkTrace(b *testing.B, sellers, buyers int, opts core.Options, gen func(*market.Market, int64, int) []Event) {
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	events := gen(m, 99, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		s, err := NewSession(m, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ev := range events {
			if _, err := s.Step(ev); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// served is the engine instrumentation specserved runs every session with:
// a 1<<16-span flight recorder and a metrics registry, both shared by every
// iteration.
func served() core.Options {
	return core.Options{Flight: trace.NewFlight(1 << 16), Metrics: obs.NewRegistry()}
}

func BenchmarkChurnIncremental(b *testing.B) {
	benchmarkTrace(b, 10, 320, core.Options{}, SyntheticChurn)
}
func BenchmarkChurnIncrementalTraced(b *testing.B) {
	benchmarkTrace(b, 10, 320, served(), SyntheticChurn)
}
func BenchmarkChurnFullRepair(b *testing.B) {
	benchmarkTrace(b, 10, 320, core.Options{DisableIncremental: true}, SyntheticChurn)
}

func BenchmarkMobileChurnIncremental(b *testing.B) {
	benchmarkTrace(b, 10, 320, core.Options{}, SyntheticMobileChurn)
}
func BenchmarkMobileChurnIncrementalTraced(b *testing.B) {
	benchmarkTrace(b, 10, 320, served(), SyntheticMobileChurn)
}
