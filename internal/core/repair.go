package core

import (
	"fmt"

	"specmatch/internal/market"
	"specmatch/internal/matching"
)

// Repair runs Stage II (transfer, then invitation) from an arbitrary
// interference-free starting matching, mutating mu in place.
//
// The two-stage algorithm's Stage II never relies on how Stage I produced
// its input — only on the input being interference-free — so the same
// machinery doubles as an incremental repair operator: after buyers arrive
// (unmatched) or depart (unassigned), a Repair pass restores Nash stability
// without restarting deferred acceptance and without evicting any incumbent.
// Package online builds dynamic-market sessions on top of this.
func Repair(m *market.Market, mu *matching.Matching, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if err := mu.Validate(); err != nil {
		return Result{}, fmt.Errorf("core: repair input: %w", err)
	}
	for i := 0; i < m.M(); i++ {
		coalition := mu.Coalition(i)
		if !m.Graph(i).IsIndependent(coalition) {
			return Result{}, fmt.Errorf("core: repair input has interference in coalition %d", i)
		}
	}

	eng := newEngine(m, opts)
	span := opts.Flight.Start(opts.SpanParent, "core.repair")
	defer span.End()
	eng.runCtx = span.Context()
	res := Result{Matching: mu}
	res.StageI.Welfare = eng.welfare(mu)
	if err := eng.runStageII(mu, &res); err != nil {
		return Result{}, fmt.Errorf("core: repair: %w", err)
	}
	res.Cache = eng.cacheStats()
	eng.publish(&res, eng.solves)
	annotateRun(&span, &res)
	return res, nil
}
