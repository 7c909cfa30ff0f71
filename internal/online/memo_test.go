package online

import (
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/obs"
)

// memoCounters are the incremental engine's cost-model counters, in this
// order: MWIS solves the step ran, and candidate sets the coalition memo
// (or the independent-set fast path) answered without one.
var memoCounters = [2]string{
	"core.incremental.solves",
	"core.incremental.memo_hits",
}

// memoFig7a pins the per-step memoCounters deltas of
// SyntheticMobileChurn(seed 1, 64 steps) on the fig7a market (10×320, seed
// 1). The memo persists across steps, so these counts depend on the whole
// step history — something the differential harness, which compares each
// step with a fresh full rebuild, cannot see.
var memoFig7a = [64][2]int64{
	{7, 14}, {3, 23}, {2, 24}, {2, 25}, {1, 27}, {3, 19}, {3, 24}, {3, 18},
	{1, 27}, {1, 19}, {1, 22}, {0, 18}, {3, 28}, {2, 27}, {0, 32}, {0, 26},
	{2, 19}, {3, 20}, {4, 22}, {2, 22}, {2, 24}, {8, 15}, {6, 8}, {10, 8},
	{6, 8}, {4, 23}, {5, 25}, {2, 20}, {3, 21}, {3, 19}, {0, 27}, {0, 17},
	{0, 18}, {2, 18}, {2, 18}, {2, 19}, {1, 21}, {5, 21}, {1, 20}, {7, 26},
	{3, 18}, {1, 21}, {2, 28}, {2, 23}, {1, 27}, {2, 20}, {1, 23}, {2, 20},
	{3, 19}, {8, 14}, {5, 14}, {4, 19}, {5, 19}, {0, 18}, {7, 16}, {5, 32},
	{3, 23}, {3, 17}, {6, 19}, {0, 25}, {1, 18}, {2, 15}, {6, 25}, {1, 19},
}

// memoSparse is memoFig7a's recording on the same market shape with ranges
// drawn from (0, 0.8] instead of (0, 5]: sparse interference graphs, where
// most candidate sets are independent.
var memoSparse = [64][2]int64{
	{0, 10}, {0, 11}, {0, 10}, {0, 13}, {0, 10}, {1, 10}, {0, 9}, {0, 8},
	{0, 11}, {0, 11}, {1, 9}, {0, 8}, {0, 10}, {0, 13}, {0, 8}, {0, 9},
	{1, 10}, {0, 9}, {0, 9}, {0, 11}, {0, 11}, {0, 9}, {1, 7}, {2, 9},
	{1, 8}, {0, 12}, {1, 9}, {0, 9}, {1, 9}, {1, 9}, {0, 12}, {0, 7},
	{0, 10}, {0, 10}, {0, 11}, {0, 9}, {0, 12}, {1, 8}, {0, 7}, {1, 10},
	{0, 7}, {0, 10}, {1, 12}, {0, 14}, {0, 9}, {0, 9}, {0, 10}, {0, 10},
	{0, 11}, {3, 9}, {0, 10}, {0, 10}, {1, 9}, {0, 10}, {0, 12}, {2, 10},
	{0, 14}, {0, 9}, {0, 13}, {1, 12}, {2, 12}, {0, 8}, {0, 11}, {0, 11},
}

// stepCounters are the engine-wide registry counters each incremental step
// must keep consistent with memoCounters (see checkStepCounters).
var stepCounters = []string{
	"core.runs",
	"core.incremental.steps",
	"core.mwis.solves",
	"core.cache.misses",
	"core.cache.hits",
	"core.cache.independent",
	"core.evictions",
	"core.incremental.solves",
	"core.incremental.memo_hits",
}

// checkStepCounters requires one step's stepCounters deltas to describe one
// run of its own: the engine-wide solve and cache counters agree with the
// incremental ones, and Stage I, which a step never runs, evicts nobody.
func checkStepCounters(t *testing.T, k int, d map[string]int64) {
	t.Helper()
	if d["core.runs"] != 1 || d["core.incremental.steps"] != 1 {
		t.Fatalf("step %d: core.runs +%d, core.incremental.steps +%d, want +1 each",
			k, d["core.runs"], d["core.incremental.steps"])
	}
	if solves := d["core.incremental.solves"]; d["core.mwis.solves"] != solves || d["core.cache.misses"] != solves {
		t.Fatalf("step %d: core.mwis.solves +%d, core.cache.misses +%d, core.incremental.solves +%d, want equal",
			k, d["core.mwis.solves"], d["core.cache.misses"], solves)
	}
	if hits := d["core.cache.hits"] + d["core.cache.independent"]; hits != d["core.incremental.memo_hits"] {
		t.Fatalf("step %d: core.cache.hits+independent +%d, core.incremental.memo_hits +%d, want equal",
			k, hits, d["core.incremental.memo_hits"])
	}
	if d["core.evictions"] != 0 {
		t.Fatalf("step %d: core.evictions +%d, want 0", k, d["core.evictions"])
	}
}

// TestMobileMemoCountersPinned replays the mobile churn trace and requires
// every step's solve and memo-hit deltas to equal the recorded tables, on
// both a dense and a sparse market: a change to what the memo keeps, drops
// or keys on shows up here even when every matching stays the same. Every
// step's engine-wide counters must also agree with them (checkStepCounters).
func TestMobileMemoCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name     string
		rangeMax float64
		want     *[64][2]int64
	}{
		{"fig7a", 0, &memoFig7a},
		{"sparse", 0.8, &memoSparse},
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
			var prev [2]int64
			prevStep := make(map[string]int64, len(stepCounters))
			for k, ev := range SyntheticMobileChurn(m, 1, len(c.want)) {
				if _, err := s.Step(ev); err != nil {
					t.Fatalf("step %d: %v", k, err)
				}
				d := make(map[string]int64, len(stepCounters))
				for _, name := range stepCounters {
					v := reg.CounterValue(name)
					d[name], prevStep[name] = v-prevStep[name], v
				}
				checkStepCounters(t, k, d)
				var got [2]int64
				for x, name := range memoCounters {
					v := reg.CounterValue(name)
					got[x], prev[x] = v-prev[x], v
				}
				if got != c.want[k] {
					t.Fatalf("step %d: %v deltas = %v, recorded %v", k, memoCounters, got, c.want[k])
				}
			}
		})
	}
}
