package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/obs"
	"specmatch/internal/online"
)

// Baseline is the engine benchmark record committed as BENCH_BASELINE.json.
// The welfare/matched/rounds fields are exact goldens: the engine is
// deterministic, so any drift is a behavior change, not noise. The timings
// are informational (they depend on the recording machine); the benchguard
// test re-measures both configurations side by side on the current machine
// instead of trusting them.
type Baseline struct {
	GeneratedBy string              `json:"generated_by"`
	GoMaxProcs  int                 `json:"gomaxprocs"`
	Cases       []BaselineCase      `json:"cases"`
	Churn       []ChurnBaselineCase `json:"churn"`
}

// BaselineCase records one market scale from the paper's evaluation (§V).
type BaselineCase struct {
	Name    string `json:"name"`
	Sellers int    `json:"sellers"`
	Buyers  int    `json:"buyers"`
	Seed    int64  `json:"seed"`

	// Exact goldens, identical with the coalition cache on or off.
	Welfare float64 `json:"welfare"`
	Matched int     `json:"matched"`
	Rounds  int     `json:"rounds"`

	// Informational timings from the recording machine: the engine's default
	// configuration (coalition cache on) versus the uncached configuration
	// (SeqNs, cache disabled), best of three runs each.
	// InstrumentedNs times the default configuration with a live obs
	// registry attached, recording what the observability layer costs.
	DefaultNs      int64   `json:"default_ns"`
	SeqNs          int64   `json:"seq_ns"`
	InstrumentedNs int64   `json:"instrumented_ns"`
	Speedup        float64 `json:"speedup"`
	CacheHits      int     `json:"cache_hits"`
	CacheIndep     int     `json:"cache_independent"`
	CacheMiss      int     `json:"cache_misses"`
}

// BaselineCases returns the market scales the baseline records: the largest
// points of Figs. 7(a)/8(a) and 7(b)/8(b), plus a mid-size market.
func BaselineCases(seed int64) []BaselineCase {
	return []BaselineCase{
		{Name: "fig7a-max", Sellers: 10, Buyers: 320, Seed: seed},
		{Name: "fig7b-max", Sellers: 16, Buyers: 500, Seed: seed},
		{Name: "mid", Sellers: 8, Buyers: 200, Seed: seed},
	}
}

// ChurnBaselineCase records one churn-heavy online workload: a deterministic
// online.SyntheticChurn trace replayed through a session on the incremental
// engine and on the full-recompute shadow path (DisableIncremental). The
// final welfare and matched count are exact goldens — both paths must
// reproduce them bit-for-bit, and the recording run additionally verifies
// per-step StepStats equality between the two paths.
type ChurnBaselineCase struct {
	Name    string `json:"name"`
	Sellers int    `json:"sellers"`
	Buyers  int    `json:"buyers"`
	Seed    int64  `json:"seed"`
	Steps   int    `json:"steps"`

	// Exact goldens after replaying the whole trace, identical on both paths.
	Welfare float64 `json:"welfare"`
	Matched int     `json:"matched"`

	// Informational timings from the recording machine, best of three full
	// trace replays each; the per-step figures divide by Steps. The benchguard
	// test re-measures both paths side by side instead of trusting them.
	IncrementalStepNs int64   `json:"incremental_step_ns"`
	FullStepNs        int64   `json:"full_step_ns"`
	StepSpeedup       float64 `json:"step_speedup"`
}

// ChurnBaselineCases returns the churn workloads the baseline records: the
// fig7a-scale market plus a mid-size one, each under 64 mixed churn steps,
// and a mobility case whose trace adds random-waypoint Move events (buyer
// rewires) on top of the same churn mix.
func ChurnBaselineCases(seed int64) []ChurnBaselineCase {
	return []ChurnBaselineCase{
		{Name: "churn-fig7a", Sellers: 10, Buyers: 320, Seed: seed, Steps: 64},
		{Name: "churn-mid", Sellers: 8, Buyers: 200, Seed: seed, Steps: 64},
		{Name: "churn-mobile-fig7a", Sellers: 10, Buyers: 320, Seed: seed, Steps: 64},
	}
}

// ChurnTrace derives a case's event trace from its name: cases named
// *-mobile-* replay online.SyntheticMobileChurn, the rest plain
// online.SyntheticChurn. Both the recorder here and the benchguard replayer
// call this, keeping the never-derive-independently contract intact.
func ChurnTrace(c ChurnBaselineCase, m *market.Market) []online.Event {
	if strings.Contains(c.Name, "-mobile") {
		return online.SyntheticMobileChurn(m, c.Seed, c.Steps)
	}
	return online.SyntheticChurn(m, c.Seed, c.Steps)
}

// MeasureChurnBaselineCase replays the case's synthetic churn trace through
// both engine paths, verifies they agree step for step, and fills in the
// goldens and timings.
func MeasureChurnBaselineCase(c *ChurnBaselineCase) error {
	m, err := market.Generate(market.Config{Sellers: c.Sellers, Buyers: c.Buyers, Seed: c.Seed})
	if err != nil {
		return fmt.Errorf("generating %s: %w", c.Name, err)
	}
	events := ChurnTrace(*c, m)

	replay := func(disable bool) (time.Duration, *online.Session, []online.StepStats, error) {
		bestD := time.Duration(0)
		var bestSess *online.Session
		var bestStats []online.StepStats
		for iter := 0; iter < 3; iter++ {
			s, err := online.NewSession(m, core.Options{DisableIncremental: disable})
			if err != nil {
				return 0, nil, nil, err
			}
			stats := make([]online.StepStats, 0, len(events))
			start := time.Now()
			for _, ev := range events {
				st, err := s.Step(ev)
				if err != nil {
					return 0, nil, nil, err
				}
				stats = append(stats, st)
			}
			d := time.Since(start)
			if bestSess == nil || d < bestD {
				bestD, bestSess, bestStats = d, s, stats
			}
		}
		return bestD, bestSess, bestStats, nil
	}

	incDur, incSess, incStats, err := replay(false)
	if err != nil {
		return fmt.Errorf("%s incremental replay: %w", c.Name, err)
	}
	fullDur, fullSess, fullStats, err := replay(true)
	if err != nil {
		return fmt.Errorf("%s full-path replay: %w", c.Name, err)
	}
	for k := range incStats {
		if incStats[k] != fullStats[k] {
			return fmt.Errorf("%s: step %d stats diverge between paths:\n incremental %+v\n full        %+v",
				c.Name, k, incStats[k], fullStats[k])
		}
	}
	if incSess.Welfare() != fullSess.Welfare() {
		return fmt.Errorf("%s: final welfare diverges: incremental %v, full %v",
			c.Name, incSess.Welfare(), fullSess.Welfare())
	}
	if !incSess.Matching().Equal(fullSess.Matching()) {
		return fmt.Errorf("%s: final matchings diverge between paths", c.Name)
	}

	c.Welfare = incSess.Welfare()
	c.Matched = incSess.Matching().MatchedCount()
	c.IncrementalStepNs = incDur.Nanoseconds() / int64(c.Steps)
	c.FullStepNs = fullDur.Nanoseconds() / int64(c.Steps)
	if incDur > 0 {
		c.StepSpeedup = float64(fullDur) / float64(incDur)
	}
	return nil
}

// MeasureBaselineCase fills in one case's goldens and timings, verifying
// along the way that the cached default configuration and the uncached
// configuration produce identical results.
func MeasureBaselineCase(c *BaselineCase) error {
	m, err := market.Generate(market.Config{Sellers: c.Sellers, Buyers: c.Buyers, Seed: c.Seed})
	if err != nil {
		return fmt.Errorf("generating %s: %w", c.Name, err)
	}
	defaultOpts := core.Options{}
	uncachedOpts := core.Options{DisableCoalitionCache: true}

	var defRes *core.Result
	best := func(opts core.Options) (time.Duration, *core.Result, error) {
		bestD := time.Duration(0)
		var res *core.Result
		for iter := 0; iter < 3; iter++ {
			start := time.Now()
			r, err := core.Run(m, opts)
			d := time.Since(start)
			if err != nil {
				return 0, nil, err
			}
			if res == nil || d < bestD {
				bestD, res = d, r
			}
		}
		return bestD, res, nil
	}

	defDur, defRes, err := best(defaultOpts)
	if err != nil {
		return fmt.Errorf("%s default run: %w", c.Name, err)
	}
	uncachedDur, uncachedRes, err := best(uncachedOpts)
	if err != nil {
		return fmt.Errorf("%s uncached run: %w", c.Name, err)
	}
	instDur, instRes, err := best(core.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		return fmt.Errorf("%s instrumented run: %w", c.Name, err)
	}
	if defRes.Welfare != uncachedRes.Welfare || defRes.Matched != uncachedRes.Matched ||
		defRes.TotalRounds() != uncachedRes.TotalRounds() {
		return fmt.Errorf("%s: default and uncached configurations disagree (welfare %v vs %v)",
			c.Name, defRes.Welfare, uncachedRes.Welfare)
	}
	if instRes.Welfare != defRes.Welfare {
		return fmt.Errorf("%s: instrumentation changed welfare (%v vs %v)",
			c.Name, instRes.Welfare, defRes.Welfare)
	}

	c.Welfare = defRes.Welfare
	c.Matched = defRes.Matched
	c.Rounds = defRes.TotalRounds()
	c.DefaultNs = defDur.Nanoseconds()
	c.SeqNs = uncachedDur.Nanoseconds()
	c.InstrumentedNs = instDur.Nanoseconds()
	if defDur > 0 {
		c.Speedup = float64(uncachedDur) / float64(defDur)
	}
	c.CacheHits = defRes.Cache.Hits
	c.CacheIndep = defRes.Cache.Independent
	c.CacheMiss = defRes.Cache.Misses
	return nil
}

// writeBaseline measures every baseline case and writes the JSON record.
func writeBaseline(path string, seed int64, out io.Writer) error {
	b := Baseline{
		GeneratedBy: "specbench -baseline",
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Cases:       BaselineCases(seed),
		Churn:       ChurnBaselineCases(seed),
	}
	for k := range b.Cases {
		c := &b.Cases[k]
		if err := MeasureBaselineCase(c); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s M=%-3d N=%-4d welfare %.4f matched %d rounds %d  default %s uncached %s instrumented %s (%.2fx)  cache %d/%d/%d\n",
			c.Name, c.Sellers, c.Buyers, c.Welfare, c.Matched, c.Rounds,
			time.Duration(c.DefaultNs), time.Duration(c.SeqNs), time.Duration(c.InstrumentedNs), c.Speedup,
			c.CacheHits, c.CacheIndep, c.CacheMiss)
	}
	for k := range b.Churn {
		c := &b.Churn[k]
		if err := MeasureChurnBaselineCase(c); err != nil {
			return err
		}
		fmt.Fprintf(out, "%-12s M=%-3d N=%-4d welfare %.4f matched %d steps %d  incremental %s/step full %s/step (%.2fx)\n",
			c.Name, c.Sellers, c.Buyers, c.Welfare, c.Matched, c.Steps,
			time.Duration(c.IncrementalStepNs), time.Duration(c.FullStepNs), c.StepSpeedup)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing baseline: %w", err)
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}
