// Package experiment regenerates every figure of the paper's evaluation
// (§V): the welfare-versus-optimal comparison of Fig. 6, the per-stage
// welfare decomposition of Fig. 7, and the per-stage running times of
// Fig. 8, plus ablations this reproduction adds (MWIS strategy, Stage II
// phases, asynchronous transition rules).
//
// Each figure is a sweep over one parameter; each sweep point runs Reps
// independent replications on freshly generated markets and aggregates them
// into stats.Summary values per named series. Replications are
// embarrassingly parallel and deterministically seeded, so results are
// identical at any parallelism level.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"specmatch/internal/core"
	"specmatch/internal/obs"
	"specmatch/internal/stats"
	"specmatch/internal/xrand"
)

// RunConfig tunes a figure regeneration.
type RunConfig struct {
	// Seed drives all randomness; same seed, same figure.
	Seed int64
	// Reps is the number of replications per sweep point; zero means 20.
	Reps int
	// Workers bounds parallel replications; zero means GOMAXPROCS.
	Workers int

	// Metrics, when non-nil, aggregates engine instrumentation across every
	// replication of the figure (the registry's counters are atomic, so
	// parallel replications share it safely). Measured results are identical
	// either way.
	Metrics *obs.Registry
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Reps == 0 {
		c.Reps = 20
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// engineOptions translates the config into the engine options every
// replication should run under.
func (c RunConfig) engineOptions() core.Options {
	return core.Options{Metrics: c.Metrics}
}

// Point is one sweep position with aggregated measurements per series.
type Point struct {
	X      float64                  `json:"x"`
	Values map[string]stats.Summary `json:"values"`
}

// Figure is a regenerated evaluation figure.
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []string `json:"series"`
	Points []Point  `json:"points"`
}

// Value returns the mean of the named series at point index k.
func (f *Figure) Value(k int, series string) float64 {
	return f.Points[k].Values[series].Mean
}

// Format renders the figure as an aligned text table with mean ± 95% CI
// cells, the form the CLI and EXPERIMENTS.md use.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %-22s", s)
	}
	b.WriteByte('\n')
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%-12.3f", p.X)
		for _, s := range f.Series {
			v := p.Values[s]
			fmt.Fprintf(&b, "  %-22s", fmt.Sprintf("%.3f ± %.3f", v.Mean, v.CI95()))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// measurement is one replication's named values; X overrides the sweep
// coordinate when the x-axis is itself measured (e.g. realized SRCC).
type measurement struct {
	values map[string]float64
	x      float64
	hasX   bool
}

// sweepPoint describes one position of a sweep.
type sweepPoint struct {
	x float64
	// run executes one replication with a dedicated seed.
	run func(seed int64) (measurement, error)
}

// runSweep executes all replications of all points with bounded parallelism
// and aggregates per-series summaries.
func runSweep(cfg RunConfig, series []string, points []sweepPoint) ([]Point, error) {
	cfg = cfg.withDefaults()
	type job struct{ point, rep int }
	type outcome struct {
		point int
		m     measurement
		err   error
	}

	jobs := make(chan job)
	outcomes := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				seed := xrand.Split(cfg.Seed, jb.point*1_000_003+jb.rep)
				m, err := points[jb.point].run(seed)
				outcomes <- outcome{point: jb.point, m: m, err: err}
			}
		}()
	}
	go func() {
		for p := range points {
			for rep := 0; rep < cfg.Reps; rep++ {
				jobs <- job{point: p, rep: rep}
			}
		}
		close(jobs)
	}()
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	perPoint := make([]map[string][]float64, len(points))
	xs := make([][]float64, len(points))
	for p := range perPoint {
		perPoint[p] = make(map[string][]float64, len(series))
	}
	var firstErr error
	for oc := range outcomes {
		if oc.err != nil {
			if firstErr == nil {
				firstErr = oc.err
			}
			continue
		}
		for name, v := range oc.m.values {
			perPoint[oc.point][name] = append(perPoint[oc.point][name], v)
		}
		if oc.m.hasX {
			xs[oc.point] = append(xs[oc.point], oc.m.x)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([]Point, len(points))
	for p := range points {
		values := make(map[string]stats.Summary, len(series))
		for _, name := range series {
			// Sort for deterministic aggregation regardless of arrival order.
			vs := perPoint[p][name]
			sort.Float64s(vs)
			values[name] = stats.Summarize(vs)
		}
		x := points[p].x
		if len(xs[p]) > 0 {
			sort.Float64s(xs[p])
			x = stats.Mean(xs[p])
		}
		out[p] = Point{X: x, Values: values}
	}
	return out, nil
}

// Spec is a catalog entry: a named, self-describing experiment.
type Spec struct {
	ID          string
	Description string
	Run         func(cfg RunConfig) (*Figure, error)
}

// Catalog returns every reproducible experiment keyed by ID: the paper's
// figure panels ("6a".."8c") and this reproduction's ablations.
func Catalog() map[string]Spec {
	specs := []Spec{
		{ID: "6a", Description: "Welfare, optimal vs proposed; N = 6..10, M = 4 (Fig. 6a)", Run: Fig6a},
		{ID: "6b", Description: "Welfare, optimal vs proposed; M = 2..6, N = 8 (Fig. 6b)", Run: Fig6b},
		{ID: "6c", Description: "Welfare vs price similarity; M = 5, N = 8 (Fig. 6c)", Run: Fig6c},
		{ID: "7a", Description: "Cumulative welfare per stage; N = 200..320, M = 10 (Fig. 7a)", Run: Fig7a},
		{ID: "7b", Description: "Cumulative welfare per stage; M = 4..16, N = 500 (Fig. 7b)", Run: Fig7b},
		{ID: "7c", Description: "Cumulative welfare per stage vs similarity; M = 8, N = 300 (Fig. 7c)", Run: Fig7c},
		{ID: "8a", Description: "Running time per stage; N = 200..320, M = 10 (Fig. 8a)", Run: Fig8a},
		{ID: "8b", Description: "Running time per stage; M = 4..16, N = 500 (Fig. 8b)", Run: Fig8b},
		{ID: "8c", Description: "Running time per stage vs similarity; M = 8, N = 300 (Fig. 8c)", Run: Fig8c},
		{ID: "ablation-mwis", Description: "Ablation: MWIS strategy vs welfare", Run: AblationMWIS},
		{ID: "ablation-stage2", Description: "Ablation: Stage II phase contributions", Run: AblationStage2},
		{ID: "ablation-async", Description: "Ablation: asynchronous transition rules", Run: AblationAsync},
		{ID: "ablation-faults", Description: "Ablation: welfare under message loss", Run: AblationFaults},
		{ID: "ablation-swap", Description: "Extension: coordinated-exchange stage vs two-stage and optimal", Run: AblationSwap},
		{ID: "ablation-auction", Description: "Baseline: matching vs TRUST-style group-based double auction", Run: AblationAuction},
		{ID: "ablation-online", Description: "Extension: incremental repair vs fresh re-run under churn", Run: AblationOnline},
		{ID: "ablation-radio", Description: "Ablation: SINR interference model around disk calibration", Run: AblationRadio},
		{ID: "ablation-bundle", Description: "Extension: channel synergy (complements/substitutes, footnote 1)", Run: AblationBundle},
		{ID: "ablation-thresholds", Description: "Ablation: probabilistic transition-rule thresholds", Run: AblationThresholds},
		{ID: "ablation-outage", Description: "Audit: aggregate-SINR outage of the final matching (protocol-model gap)", Run: AblationOutage},
	}
	out := make(map[string]Spec, len(specs))
	for _, s := range specs {
		out[s.ID] = s
	}
	return out
}

// IDs returns the catalog keys in display order.
func IDs() []string {
	return []string{
		"6a", "6b", "6c",
		"7a", "7b", "7c",
		"8a", "8b", "8c",
		"ablation-mwis", "ablation-stage2", "ablation-async", "ablation-faults", "ablation-swap", "ablation-auction", "ablation-online", "ablation-radio", "ablation-bundle", "ablation-thresholds", "ablation-outage",
	}
}
