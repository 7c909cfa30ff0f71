package online

import (
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/obs"
)

// closureCounters are the per-step deltas of the incremental engine's
// dirty-region counters, in this order.
var closureCounters = [4]string{
	"core.incremental.dirty_buyers",
	"core.incremental.dirty_sellers",
	"core.incremental.solves",
	"core.incremental.memo_hits",
}

// closureFig7a pins the per-step closureCounters deltas of
// SyntheticMobileChurn(seed 1, 64 steps) on the fig7a market (10×320, seed
// 1), recorded when movers' pre-move neighbors still reached the engine as
// an int list. The paper's ranges make that market dense, so every step's
// closure saturates at all 320 buyers; closureSparse below is the variant
// whose closure sizes actually move.
var closureFig7a = [64][4]int64{
	{320, 10, 7, 14}, {320, 10, 3, 23}, {320, 10, 2, 24}, {320, 10, 2, 25},
	{320, 10, 1, 27}, {320, 10, 3, 19}, {320, 10, 3, 24}, {320, 10, 3, 18},
	{320, 10, 1, 27}, {320, 10, 1, 19}, {320, 10, 1, 22}, {320, 10, 0, 18},
	{320, 10, 3, 28}, {320, 10, 2, 27}, {320, 10, 0, 32}, {320, 10, 0, 26},
	{320, 10, 2, 19}, {320, 10, 3, 20}, {320, 10, 4, 22}, {320, 10, 2, 22},
	{320, 10, 2, 24}, {320, 10, 8, 15}, {320, 10, 6, 8}, {320, 10, 10, 8},
	{320, 9, 6, 8}, {320, 10, 4, 23}, {320, 10, 5, 25}, {320, 10, 2, 20},
	{320, 10, 3, 21}, {320, 10, 3, 19}, {320, 10, 0, 27}, {320, 10, 0, 17},
	{320, 10, 0, 18}, {320, 10, 2, 18}, {320, 10, 2, 18}, {320, 10, 2, 19},
	{320, 10, 1, 21}, {320, 10, 5, 21}, {320, 10, 1, 20}, {320, 10, 7, 26},
	{320, 10, 3, 18}, {320, 10, 1, 21}, {320, 10, 2, 28}, {320, 10, 2, 23},
	{320, 10, 1, 27}, {320, 10, 2, 20}, {320, 10, 1, 23}, {320, 10, 2, 20},
	{320, 10, 3, 19}, {320, 10, 8, 14}, {320, 9, 5, 14}, {320, 10, 4, 19},
	{320, 10, 5, 19}, {320, 10, 0, 18}, {320, 10, 7, 16}, {320, 10, 5, 32},
	{320, 10, 3, 23}, {320, 10, 3, 17}, {320, 10, 6, 19}, {320, 10, 0, 25},
	{320, 10, 1, 18}, {320, 10, 2, 15}, {320, 10, 6, 25}, {320, 10, 1, 19},
}

// closureSparse is closureFig7a's recording on the same market shape with
// ranges drawn from (0, 0.8] instead of (0, 5]: sparse interference graphs,
// so each step's closure size depends on exactly which old neighbors the
// movers seed.
var closureSparse = [64][4]int64{
	{164, 10, 0, 10}, {161, 10, 0, 11}, {141, 10, 0, 10}, {140, 10, 0, 13},
	{151, 10, 0, 10}, {178, 10, 1, 10}, {141, 9, 0, 9}, {127, 10, 0, 8},
	{177, 10, 0, 11}, {109, 10, 0, 11}, {148, 10, 1, 9}, {112, 9, 0, 8},
	{169, 10, 0, 10}, {137, 10, 0, 13}, {153, 10, 0, 8}, {172, 10, 0, 9},
	{191, 10, 1, 10}, {119, 10, 0, 9}, {127, 10, 0, 9}, {131, 10, 0, 11},
	{194, 10, 0, 11}, {174, 10, 0, 9}, {204, 9, 1, 7}, {219, 9, 2, 9},
	{132, 9, 1, 8}, {174, 10, 0, 12}, {134, 10, 1, 9}, {161, 10, 0, 9},
	{158, 10, 1, 9}, {145, 10, 1, 9}, {183, 10, 0, 12}, {144, 10, 0, 7},
	{158, 10, 0, 10}, {151, 10, 0, 10}, {123, 10, 0, 11}, {152, 10, 0, 9},
	{116, 10, 0, 12}, {192, 10, 1, 8}, {149, 10, 0, 7}, {168, 10, 1, 10},
	{119, 10, 0, 7}, {118, 10, 0, 10}, {154, 10, 1, 12}, {150, 10, 0, 14},
	{165, 10, 0, 9}, {172, 10, 0, 9}, {144, 10, 0, 10}, {166, 10, 0, 10},
	{192, 10, 0, 11}, {246, 10, 3, 9}, {186, 9, 0, 10}, {131, 10, 0, 10},
	{169, 10, 1, 9}, {167, 10, 0, 10}, {203, 10, 0, 12}, {141, 10, 2, 10},
	{173, 10, 0, 14}, {141, 10, 0, 9}, {129, 10, 0, 13}, {170, 10, 1, 12},
	{183, 10, 2, 12}, {164, 10, 0, 8}, {149, 10, 0, 11}, {153, 10, 0, 11},
}

// TestMobileDirtyClosurePinned replays the mobile churn trace and requires
// every step's dirty-region counters to equal the recorded tables: the
// bitset of movers' pre-move rows must seed exactly the closure the old
// neighbor list did, step by step, on both a saturated and a sparse market.
func TestMobileDirtyClosurePinned(t *testing.T) {
	for _, c := range []struct {
		name     string
		rangeMax float64
		want     *[64][4]int64
	}{
		{"fig7a", 0, &closureFig7a},
		{"sparse", 0.8, &closureSparse},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := market.Generate(market.Config{Sellers: 10, Buyers: 320, Seed: 1, RangeMax: c.rangeMax})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			s, err := NewSession(m, core.Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			var prev [4]int64
			for k, ev := range SyntheticMobileChurn(m, 1, len(c.want)) {
				if _, err := s.Step(ev); err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				var got [4]int64
				for x, name := range closureCounters {
					v := reg.CounterValue(name)
					got[x], prev[x] = v-prev[x], v
				}
				if got != c.want[k] {
					t.Fatalf("step %d: %v deltas = %v, recorded %v", k, closureCounters, got, c.want[k])
				}
			}
		})
	}
}
