package online

import (
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
)

// benchmarkTrace replays gen's deterministic 64-step trace (seed 99) through
// a fresh session per iteration; disable toggles the incremental engine off.
func benchmarkTrace(b *testing.B, sellers, buyers int, disable bool, gen func(*market.Market, int64, int) []Event) {
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	events := gen(m, 99, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		b.StopTimer()
		s, err := NewSession(m, core.Options{DisableIncremental: disable})
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

func BenchmarkChurnIncremental(b *testing.B) { benchmarkTrace(b, 10, 320, false, SyntheticChurn) }
func BenchmarkChurnFullRepair(b *testing.B)  { benchmarkTrace(b, 10, 320, true, SyntheticChurn) }

func BenchmarkMobileChurnIncremental(b *testing.B) {
	benchmarkTrace(b, 10, 320, false, SyntheticMobileChurn)
}
