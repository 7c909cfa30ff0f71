// Package core implements the paper's primary contribution: the two-stage
// distributed spectrum matching algorithm (§III-B).
//
//   - Stage I is the adapted deferred acceptance of Algorithm 1: buyers
//     propose in descending utility order; each seller keeps her
//     most-preferred coalition — a maximum-weight independent set of her
//     waiting list plus current proposers on her channel's interference
//     graph — evicting anyone left out.
//   - Stage II Phase 1 is the transfer phase of Algorithm 2: buyers apply
//     once to each seller they strictly prefer to their current match;
//     sellers admit the best independent subset of applicants compatible
//     with their (unevictable) current coalition.
//   - Stage II Phase 2 is the invitation phase: sellers invite
//     previously-rejected, now-compatible buyers in descending price order.
//
// This package is the synchronous, round-driven engine: all buyers and
// sellers advance in lockstep and stages transition globally, which is the
// semantics under which the paper proves convergence (Props. 1–2),
// individual rationality (Prop. 3) and Nash stability (Prop. 4). The
// asynchronous realization with the §IV local transition rules lives in
// internal/agent and is checked against this engine.
package core

import (
	"fmt"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/mwis"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// Options configures a run of the two-stage algorithm.
type Options struct {
	// MWIS selects the seller-side coalition solver. Zero means mwis.GWMIN,
	// the paper's linear-time greedy.
	MWIS mwis.Algorithm

	// Workers is ignored. The engine is sequential: each round decides and
	// applies every seller in seller-ID order. The field remains only so
	// that code which still sets it keeps compiling.
	Workers int

	// DisableCoalitionCache turns off the per-seller incremental coalition
	// machinery (candidate-set memoization and the independent-set fast
	// path). Output is identical either way; the knob exists so benchmarks
	// and ablations can price the MWIS solver's raw hot path.
	DisableCoalitionCache bool

	// SkipTransfer and SkipInvitation disable Stage II Phase 1 / Phase 2 for
	// ablations. The paper's algorithm runs both.
	SkipTransfer   bool
	SkipInvitation bool

	// DisableIncremental forces online sessions onto the full recompute path:
	// every Step rebuilds the effective sub-market and runs core.Repair from
	// scratch instead of stepping the session's persistent Incremental engine.
	// Output is bit-identical either way. The full path is the reference:
	// the differential test harness checks the incremental engine against
	// it, and benchmarks price one path against the other.
	DisableIncremental bool

	// Recorder, when non-nil, receives one event per protocol step.
	Recorder *trace.Recorder

	// Metrics, when non-nil, receives engine instrumentation: per-round wall
	// time (core.round_seconds), MWIS solves vs. coalition-cache work
	// avoidance (core.mwis.solves, core.cache.*), evictions, and per-stage
	// round/message counts. Counters are cumulative across runs sharing the
	// registry, so one registry can aggregate a whole experiment. Metric
	// names are catalogued in PROTOCOL.md. Nil disables instrumentation at
	// near-zero cost and never changes behavior.
	Metrics *obs.Registry

	// Flight, when non-nil, receives causal spans: core.run (or core.repair)
	// as the run's root, core.round per engine round, and core.solve per
	// seller coalition decision — the span tree that says which seller gated
	// which round. Span names are catalogued in PROTOCOL.md. Nil disables
	// tracing at near-zero cost and never changes behavior.
	Flight *trace.Flight

	// SpanParent parents the run's root span under an enclosing trace (an
	// HTTP request, an online session step). Zero starts a fresh trace.
	SpanParent trace.SpanContext
}

func (o Options) withDefaults() Options {
	if o.MWIS == 0 {
		o.MWIS = mwis.GWMIN
	}
	return o
}

// StageStats reports one stage or phase of a run. Welfare is the cumulative
// social welfare at the end of the stage (the quantity of Fig. 7); Rounds is
// the stage's own round count (Fig. 8); Messages counts protocol messages
// initiated during the stage.
type StageStats struct {
	Rounds   int     `json:"rounds"`
	Welfare  float64 `json:"welfare"`
	Messages int     `json:"messages"`
}

// CacheStats reports the incremental coalition machinery's work avoidance
// across a run. Hits counts MWIS solves skipped because the seller's
// candidate set was unchanged from an earlier decision (memoized);
// Independent counts solves skipped because the candidate set was pairwise
// interference-free, where every solver provably returns the whole set;
// Misses counts the full MWIS solves that actually ran.
type CacheStats struct {
	Hits        int `json:"hits"`
	Independent int `json:"independent"`
	Misses      int `json:"misses"`
}

// Result is the outcome of a full two-stage run.
type Result struct {
	Matching *matching.Matching `json:"-"`

	StageI StageStats `json:"stage_i"`
	Phase1 StageStats `json:"phase_1"`
	Phase2 StageStats `json:"phase_2"`

	// Welfare is the final social welfare (equals Phase2.Welfare).
	Welfare float64 `json:"welfare"`
	// Matched is the number of matched buyers.
	Matched int `json:"matched"`

	// Cache reports coalition-cache effectiveness (zero when the cache is
	// disabled).
	Cache CacheStats `json:"cache"`
}

// TotalRounds returns the end-to-end round count across all stages.
func (r *Result) TotalRounds() int {
	return r.StageI.Rounds + r.Phase1.Rounds + r.Phase2.Rounds
}

// Run executes the full two-stage algorithm on the market.
func Run(m *market.Market, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	eng := newEngine(m, opts)
	span := opts.Flight.Start(opts.SpanParent, "core.run")
	defer span.End()
	eng.runCtx = span.Context()

	mu, stage1, err := eng.runStageI()
	if err != nil {
		return nil, fmt.Errorf("core: stage I: %w", err)
	}
	res := &Result{Matching: mu, StageI: stage1}
	if err := eng.runStageII(mu, res); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res.Cache = eng.cacheStats()
	eng.publish(res, eng.solves)
	annotateRun(&span, res)
	return res, nil
}

// runStageII runs Stage II on mu in place — the transfer phase, then the
// invitation phase, each unless the options skip it — and fills res's
// Phase1, Phase2, Welfare and Matched. It is the one Stage II driver behind
// Run, Repair and Incremental.Step.
func (e *engine) runStageII(mu *matching.Matching, res *Result) error {
	var inviteLists [][]int
	var err error
	if !e.opts.SkipTransfer {
		if inviteLists, res.Phase1, err = e.runTransfer(mu); err != nil {
			return fmt.Errorf("stage II phase 1: %w", err)
		}
	}
	res.Phase1.Welfare = e.welfare(mu)
	if !e.opts.SkipInvitation {
		if res.Phase2, err = e.runInvitation(mu, inviteLists); err != nil {
			return fmt.Errorf("stage II phase 2: %w", err)
		}
	}
	res.Phase2.Welfare = e.welfare(mu)
	res.Welfare = res.Phase2.Welfare
	res.Matched = mu.MatchedCount()
	return nil
}

// annotateRun labels a run's root span (core.run, core.repair or core.dirty)
// with the run's outcome.
func annotateRun(span *trace.SpanHandle, res *Result) {
	if span.Active() {
		span.Annotate(fmt.Sprintf("rounds=%d matched=%d welfare=%.6g", res.TotalRounds(), res.Matched, res.Welfare))
	}
}
