package specmatch_test

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/trace"
)

// benchBaseline mirrors the schema cmd/specbench writes to BENCH_BASELINE.json
// (kept in sync by TestBenchBaseline failing on decode).
type benchBaseline struct {
	Cases []struct {
		Name    string  `json:"name"`
		Sellers int     `json:"sellers"`
		Buyers  int     `json:"buyers"`
		Seed    int64   `json:"seed"`
		Welfare float64 `json:"welfare"`
		Matched int     `json:"matched"`
		Rounds  int     `json:"rounds"`
	} `json:"cases"`
	Churn []struct {
		Name    string  `json:"name"`
		Sellers int     `json:"sellers"`
		Buyers  int     `json:"buyers"`
		Seed    int64   `json:"seed"`
		Steps   int     `json:"steps"`
		Welfare float64 `json:"welfare"`
		Matched int     `json:"matched"`
	} `json:"churn"`
}

// TestBenchBaseline guards the committed engine baseline on two axes.
//
// Welfare drift (always on): the engine is deterministic, so each baseline
// case's welfare, matched count, and total rounds must reproduce exactly —
// any drift means the algorithm changed behavior, which a "performance" PR
// must not do silently. Regenerate with `go run ./cmd/specbench -baseline
// BENCH_BASELINE.json` when a behavior change is intentional.
//
// Timing regression (RUN_BENCHCHECK=1, `make benchcheck`): the default
// engine configuration (parallel fan-out + coalition cache) must not run
// more than 2x slower than the plain sequential configuration measured side
// by side on the same machine. Both configurations produce identical output,
// so a welfare-neutral slowdown is exactly what this catches. The committed
// timings in BENCH_BASELINE.json are informational only; they came from a
// different machine and are never compared against.
func TestBenchBaseline(t *testing.T) {
	data, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatalf("reading BENCH_BASELINE.json (regenerate with `go run ./cmd/specbench -baseline BENCH_BASELINE.json`): %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding BENCH_BASELINE.json: %v", err)
	}
	if len(base.Cases) == 0 {
		t.Fatal("BENCH_BASELINE.json has no cases")
	}
	timing := os.Getenv("RUN_BENCHCHECK") == "1"

	for _, c := range base.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := market.Generate(market.Config{Sellers: c.Sellers, Buyers: c.Buyers, Seed: c.Seed})
			if err != nil {
				t.Fatalf("generating market: %v", err)
			}

			measure := func(opts core.Options, iters int) (time.Duration, *core.Result) {
				bestD := time.Duration(0)
				var res *core.Result
				for k := 0; k < iters; k++ {
					start := time.Now()
					r, err := core.Run(m, opts)
					d := time.Since(start)
					if err != nil {
						t.Fatalf("core.Run: %v", err)
					}
					if res == nil || d < bestD {
						bestD, res = d, r
					}
				}
				return bestD, res
			}

			_, res := measure(core.Options{}, 1)
			if res.Welfare != c.Welfare {
				t.Errorf("welfare drift: got %v, baseline %v", res.Welfare, c.Welfare)
			}
			if res.Matched != c.Matched {
				t.Errorf("matched drift: got %d, baseline %d", res.Matched, c.Matched)
			}
			if res.TotalRounds() != c.Rounds {
				t.Errorf("rounds drift: got %d, baseline %d", res.TotalRounds(), c.Rounds)
			}

			if !timing {
				return
			}
			// Side-by-side timing on this machine: default engine vs the
			// pre-optimization configuration, best of 5. A >2x slowdown of
			// the default over plain sequential fails.
			defDur, defRes := measure(core.Options{}, 5)
			seqDur, seqRes := measure(core.Options{Workers: 1, DisableCoalitionCache: true}, 5)
			if defRes.Welfare != seqRes.Welfare {
				t.Errorf("default and sequential configurations disagree: welfare %v vs %v", defRes.Welfare, seqRes.Welfare)
			}
			t.Logf("default %v, sequential %v (%.2fx)", defDur, seqDur, float64(seqDur)/float64(defDur))
			if defDur > 2*seqDur {
				t.Errorf("default engine is >2x slower than plain sequential: %v vs %v", defDur, seqDur)
			}
		})
	}
}

// TestChurnBaseline guards the incremental churn engine on the same two axes
// as TestBenchBaseline.
//
// Welfare drift + path equivalence (always on): each churn case's
// deterministic SyntheticChurn trace is replayed through both the incremental
// engine and the full-recompute shadow path (DisableIncremental). Every step's
// StepStats must be bit-identical between the two paths — the incremental
// engine is an optimization, never a behavior change — and the final welfare
// and matched count must reproduce the committed goldens exactly on both.
// Regenerate with `go run ./cmd/specbench -baseline BENCH_BASELINE.json` when
// a behavior change is intentional.
//
// Timing regression (RUN_BENCHCHECK=1, `make benchcheck`): the incremental
// path must replay the trace at least churnFloor[case] times faster than the
// full path, measured side by side on this machine, best of 5 replays each.
func TestChurnBaseline(t *testing.T) {
	data, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatalf("reading BENCH_BASELINE.json (regenerate with `go run ./cmd/specbench -baseline BENCH_BASELINE.json`): %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding BENCH_BASELINE.json: %v", err)
	}
	if len(base.Churn) == 0 {
		t.Fatal("BENCH_BASELINE.json has no churn cases")
	}
	timing := os.Getenv("RUN_BENCHCHECK") == "1"

	for _, c := range base.Churn {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := market.Generate(market.Config{Sellers: c.Sellers, Buyers: c.Buyers, Seed: c.Seed})
			if err != nil {
				t.Fatalf("generating market: %v", err)
			}
			// Same name dispatch as cmd/specbench's ChurnTrace: *-mobile-*
			// cases replay the churn+mobility trace, the rest plain churn.
			events := online.SyntheticChurn(m, c.Seed, c.Steps)
			if strings.Contains(c.Name, "-mobile") {
				events = online.SyntheticMobileChurn(m, c.Seed, c.Steps)
			}

			replay := func(disable bool, iters int) (time.Duration, *online.Session, []online.StepStats) {
				bestD := time.Duration(0)
				var bestSess *online.Session
				var bestStats []online.StepStats
				for k := 0; k < iters; k++ {
					s, err := online.NewSession(m, core.Options{DisableIncremental: disable})
					if err != nil {
						t.Fatalf("NewSession: %v", err)
					}
					stats := make([]online.StepStats, 0, len(events))
					start := time.Now()
					for _, ev := range events {
						st, err := s.Step(ev)
						if err != nil {
							t.Fatalf("Step: %v", err)
						}
						stats = append(stats, st)
					}
					d := time.Since(start)
					if bestSess == nil || d < bestD {
						bestD, bestSess, bestStats = d, s, stats
					}
				}
				return bestD, bestSess, bestStats
			}

			iters := 1
			if timing {
				iters = 5
			}
			incDur, incSess, incStats := replay(false, iters)
			fullDur, fullSess, fullStats := replay(true, iters)

			// Welfare-unchanged: the two paths must agree bit for bit at
			// every step, and both must match the committed goldens.
			for k := range incStats {
				if incStats[k] != fullStats[k] {
					t.Fatalf("step %d stats diverge between paths:\n incremental %+v\n full        %+v",
						k, incStats[k], fullStats[k])
				}
			}
			if !incSess.Matching().Equal(fullSess.Matching()) {
				t.Errorf("final matchings diverge between paths")
			}
			if got := incSess.Welfare(); got != c.Welfare {
				t.Errorf("welfare drift: got %v, baseline %v", got, c.Welfare)
			}
			if got := incSess.Matching().MatchedCount(); got != c.Matched {
				t.Errorf("matched drift: got %d, baseline %d", got, c.Matched)
			}

			if !timing {
				return
			}
			t.Logf("incremental %v, full %v (%.2fx) over %d steps",
				incDur, fullDur, float64(fullDur)/float64(incDur), c.Steps)
			floor, ok := churnFloor[c.Name]
			if !ok {
				t.Fatalf("no speedup floor for churn case %q: add one to churnFloor", c.Name)
			}
			if float64(fullDur) < floor*float64(incDur) {
				t.Errorf("incremental path is <%.1fx faster than full recompute: %v vs %v", floor, incDur, fullDur)
			}
		})
	}
}

// churnFloor is each churn case's minimum incremental-over-full speedup.
// Bitset-only graphs made the full path's per-step graph rebuild ~3x
// cheaper, so on a 2-vCPU machine this test now measures 6.1-9.8x
// (churn-fig7a), 8.5-14.2x (churn-mid) and 3.8-6.6x (churn-mobile-fig7a)
// over ten runs. Each floor is half the lowest of those, rounded down to a
// multiple of 0.5: low enough that machine noise cannot flake it, and still
// well above the ~1x (±15%) an accidental fallback to full recompute would
// measure, since both paths would then run the same code.
var churnFloor = map[string]float64{
	"churn-fig7a":        3,
	"churn-mid":          4,
	"churn-mobile-fig7a": 1.5,
}

// TestInstrumentationOverhead guards the observability layer the same way
// TestBenchBaseline guards the engine: attaching a live metrics registry and
// flight recorder (the always-on configuration specserved runs with) must
// not change the engine's output at all (always checked), and must not slow
// the run by more than 2x measured side by side on this machine
// (RUN_BENCHCHECK=1). The disabled path is a nil-handle check per call site,
// so a regression here means instrumentation leaked onto a hot path.
func TestInstrumentationOverhead(t *testing.T) {
	data, err := os.ReadFile("BENCH_BASELINE.json")
	if err != nil {
		t.Fatalf("reading BENCH_BASELINE.json (regenerate with `go run ./cmd/specbench -baseline BENCH_BASELINE.json`): %v", err)
	}
	var base benchBaseline
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("decoding BENCH_BASELINE.json: %v", err)
	}
	timing := os.Getenv("RUN_BENCHCHECK") == "1"

	for _, c := range base.Cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			m, err := market.Generate(market.Config{Sellers: c.Sellers, Buyers: c.Buyers, Seed: c.Seed})
			if err != nil {
				t.Fatalf("generating market: %v", err)
			}

			measure := func(opts core.Options, iters int) (time.Duration, *core.Result) {
				bestD := time.Duration(0)
				var res *core.Result
				for k := 0; k < iters; k++ {
					start := time.Now()
					r, err := core.Run(m, opts)
					d := time.Since(start)
					if err != nil {
						t.Fatalf("core.Run: %v", err)
					}
					if res == nil || d < bestD {
						bestD, res = d, r
					}
				}
				return bestD, res
			}

			instrumented := core.Options{
				Metrics: obs.NewRegistry(),
				Flight:  trace.NewFlight(1 << 15),
			}
			// Best-of-15 (up from 5 pre-sampler): the 1.10x sampler budget
			// below is tight enough that scheduler jitter on the
			// sub-millisecond cases needs more rounds to fall out of the
			// minimum.
			iters := 1
			if timing {
				iters = 15
			}
			offDur, offRes := measure(core.Options{}, iters)
			onDur, onRes := measure(instrumented, iters)

			// The always-on series sampler (PR 9) reads the same registry
			// the engine writes, concurrently, every 2ms — far hotter than
			// the serving default of 1s, so this bounds the worst case.
			sampledReg := obs.NewRegistry()
			sampled := core.Options{
				Metrics: sampledReg,
				Flight:  trace.NewFlight(1 << 15),
			}
			// The 1.10x budget is far tighter than the 2x one, so min-of-N
			// on two separate batches is too noisy: run the pair
			// interleaved (both sides see identical machine conditions)
			// and compare medians.
			samIters := 1
			if timing {
				samIters = 21
			}
			rollup := obs.NewRollup(sampledReg, 2*time.Millisecond, 1<<16)
			rollup.Start()
			pairOn := make([]time.Duration, 0, samIters)
			pairSam := make([]time.Duration, 0, samIters)
			var samRes *core.Result
			for k := 0; k < samIters; k++ {
				d, _ := measure(instrumented, 1)
				pairOn = append(pairOn, d)
				d, samRes = measure(sampled, 1)
				pairSam = append(pairSam, d)
			}
			rollup.Stop()
			if len(rollup.Windows(0)) == 0 {
				t.Fatalf("sampler took no windows; the overhead measurement is vacuous")
			}

			// Observability must be a pure observer: same welfare, same
			// matching size, same round count, matching the baseline golden.
			if onRes.Welfare != offRes.Welfare || onRes.Welfare != c.Welfare {
				t.Errorf("instrumentation changed welfare: on %v, off %v, baseline %v",
					onRes.Welfare, offRes.Welfare, c.Welfare)
			}
			if onRes.Matched != offRes.Matched {
				t.Errorf("instrumentation changed matched: on %d, off %d", onRes.Matched, offRes.Matched)
			}
			if onRes.TotalRounds() != offRes.TotalRounds() {
				t.Errorf("instrumentation changed rounds: on %d, off %d", onRes.TotalRounds(), offRes.TotalRounds())
			}

			// The sampler must also be a pure observer: serving state is
			// bit-identical sampler-on vs sampler-off.
			if samRes.Welfare != onRes.Welfare {
				t.Errorf("sampler changed welfare: sampled %v, unsampled %v", samRes.Welfare, onRes.Welfare)
			}
			if samRes.Matched != onRes.Matched {
				t.Errorf("sampler changed matched: sampled %d, unsampled %d", samRes.Matched, onRes.Matched)
			}
			if samRes.TotalRounds() != onRes.TotalRounds() {
				t.Errorf("sampler changed rounds: sampled %d, unsampled %d", samRes.TotalRounds(), onRes.TotalRounds())
			}

			if !timing {
				return
			}
			medOn, medSam := medianDur(pairOn), medianDur(pairSam)
			t.Logf("disabled %v, instrumented %v (%.2fx), sampled median %v vs instrumented median %v (%.2fx)",
				offDur, onDur, float64(onDur)/float64(offDur), medSam, medOn, float64(medSam)/float64(medOn))
			if onDur > 2*offDur {
				t.Errorf("instrumented engine is >2x slower than disabled: %v vs %v", onDur, offDur)
			}
			if float64(medSam) > 1.10*float64(medOn) {
				t.Errorf("always-on sampler exceeds the 1.10x budget: sampled median %v vs instrumented median %v", medSam, medOn)
			}
		})
	}
}

// medianDur is the middle duration of an odd-length sample.
func medianDur(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
