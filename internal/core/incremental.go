// Incremental repair: the persistent churn engine behind package online.
//
// The full Step path rebuilds the effective sub-market — M interference
// graphs, M×N price rows — on every event, then runs Stage II over it. The
// Incremental engine keeps one Stage II engine alive for a session's whole
// lifetime and feeds it deltas instead:
//
//   - the effective price rows are maintained in place (a departure zeroes a
//     column, a channel reclaim zeroes a row), never rebuilt;
//   - buyer preference orders are computed once against the base market —
//     the transfer phase's strict-improvement test skips zeroed entries
//     inline, so the base orders replay the exact application schedule the
//     per-step effective orders would produce;
//   - the per-seller coalition memo persists across steps. Solver weights
//     are always base price × active indicator and canonicalization drops
//     zero-weight candidates, so a canonical candidate set identifies its
//     coalition for as long as the channel's interference graph stands; a
//     Move event that rewires a channel drops that channel's whole memo
//     (the graph is an input to every memoized decision).
//
// The replay is exact by construction: every protocol round, message,
// decision, welfare sum and StepStats field is bit-for-bit identical to the
// full path's. The win is eliminating the per-step rebuild, not changing the
// protocol — round structure is global, so a step still replays every
// round. Phase 1 scans only the buyers who can still apply: a buyer leaves
// the scan in the round she makes no application, and her cursor ends as
// soon as no later entry can beat her utility. A step therefore costs O(N)
// to set up the cursors, O(rounds · live buyers) application scanning, three
// O(N) welfare sums, and the MWIS solves the memo misses, which the
// core.incremental.solves and memo_hits counters report.
package core

import (
	"fmt"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// Churn describes the effective deltas one online step applied to a session,
// in application order: Departed buyers were deactivated (and unassigned),
// Arrived buyers activated, ChannelsDown reclaimed, ChannelsUp re-offered.
// Lists carry only real transitions — a departure of an already-inactive
// buyer never appears. Incremental.Step reads a Churn and never retains it,
// so callers may reuse one across steps (see Reset).
type Churn struct {
	Arrived      []int
	Departed     []int
	ChannelsUp   []int
	ChannelsDown []int

	// Rewired lists the channels whose interference graph a buyer move
	// actually changed (the session already rewired the base market's
	// graphs). The engine drops those channels' coalition memos, which would
	// otherwise pin decisions made against the old graph.
	Rewired []int
}

// Reset empties c for reuse, keeping every list's storage.
func (c *Churn) Reset() {
	*c = Churn{
		Arrived:      c.Arrived[:0],
		Departed:     c.Departed[:0],
		ChannelsUp:   c.ChannelsUp[:0],
		ChannelsDown: c.ChannelsDown[:0],
		Rewired:      c.Rewired[:0],
	}
}

// incMetrics holds the incremental engine's observability handles; nil when
// the session runs without a registry.
type incMetrics struct {
	steps     *obs.Counter
	coldSyncs *obs.Counter
	solves    *obs.Counter
	memoHits  *obs.Counter
}

// Incremental is a persistent repair engine bound to one base market and one
// online session's evolving (active, offline) state. Construct with
// NewIncremental; Step replaces the session's per-event Repair call. Not
// safe for concurrent use — sessions are single-writer.
type Incremental struct {
	m    *market.Market
	opts Options
	eng  *engine

	basePref [][]int // per-buyer base-market preference orders, computed once
	prefView [][]int // entry j aliases basePref[j] while j is active, nil otherwise
	active   []bool
	offline  []bool
	ready    bool

	prevCache CacheStats // cumulative memo counters at the end of the last step

	met *incMetrics
}

// NewIncremental returns an incremental repair engine for the market. Heavy
// state (price rows, preference orders, solver scratch) is allocated on the
// first Step, so constructing one for a session that never steps is cheap.
func NewIncremental(m *market.Market, opts Options) *Incremental {
	opts = opts.withDefaults()
	inc := &Incremental{m: m, opts: opts}
	if opts.Metrics != nil {
		inc.met = &incMetrics{
			steps:     opts.Metrics.Counter("core.incremental.steps"),
			coldSyncs: opts.Metrics.Counter("core.incremental.cold_syncs"),
			solves:    opts.Metrics.Counter("core.incremental.solves"),
			memoHits:  opts.Metrics.Counter("core.incremental.memo_hits"),
		}
	}
	return inc
}

// sync (re)builds the engine's effective price rows and preference views from
// a full (active, offline) snapshot — the cold-start path, run once on the
// first Step and again only if a caller ever re-syncs.
func (inc *Incremental) sync(active, offline []bool) {
	numSellers, numBuyers := inc.m.M(), inc.m.N()
	if inc.eng == nil {
		inc.eng = newEngine(inc.m, inc.opts)
		inc.basePref = make([][]int, numBuyers)
		for j := range inc.basePref {
			inc.basePref[j] = inc.m.BuyerPrefOrder(j)
		}
		inc.prefView = make([][]int, numBuyers)
		inc.eng.basePref = inc.prefView
		inc.active = make([]bool, numBuyers)
		inc.offline = make([]bool, numSellers)
	}
	copy(inc.active, active)
	copy(inc.offline, offline)
	for i := 0; i < numSellers; i++ {
		row := inc.eng.rows[i]
		for j := 0; j < numBuyers; j++ {
			if inc.offline[i] || !inc.active[j] {
				row[j] = 0
			} else {
				row[j] = inc.m.Price(i, j)
			}
		}
	}
	for j := 0; j < numBuyers; j++ {
		if inc.active[j] {
			inc.prefView[j] = inc.basePref[j]
		} else {
			inc.prefView[j] = nil
		}
	}
	inc.ready = true
}

// apply folds one step's churn into the maintained rows and views, in the
// same order the session applied it (departures before arrivals, reclaims
// before re-offers), touching only the churned rows and columns.
func (inc *Incremental) apply(ch Churn) {
	numSellers, numBuyers := inc.m.M(), inc.m.N()
	for _, j := range ch.Departed {
		inc.active[j] = false
		inc.prefView[j] = nil
		for i := 0; i < numSellers; i++ {
			inc.eng.rows[i][j] = 0
		}
	}
	for _, j := range ch.Arrived {
		inc.active[j] = true
		inc.prefView[j] = inc.basePref[j]
		for i := 0; i < numSellers; i++ {
			if !inc.offline[i] {
				inc.eng.rows[i][j] = inc.m.Price(i, j)
			}
		}
	}
	for _, i := range ch.ChannelsDown {
		inc.offline[i] = true
		row := inc.eng.rows[i]
		for j := 0; j < numBuyers; j++ {
			row[j] = 0
		}
	}
	for _, i := range ch.ChannelsUp {
		inc.offline[i] = false
		row := inc.eng.rows[i]
		for j := 0; j < numBuyers; j++ {
			if inc.active[j] {
				row[j] = inc.m.Price(i, j)
			} else {
				row[j] = 0
			}
		}
	}
	// A rewired interference graph invalidates every coalition the channel's
	// memo pinned; moves change no price, so rows and views stand.
	if inc.eng.caches != nil {
		for _, i := range ch.Rewired {
			inc.eng.caches[i].entries = nil
		}
	}
}

// Step repairs mu after one churn event, replacing the full path's
// effective-market rebuild + Repair with an in-place delta pass. The session
// must have already applied the event to mu (departed and displaced buyers
// unassigned, arrivals active but unmatched); ch lists the effective
// transitions and active/offline are the session's post-event state (only
// read on the first Step, which cold-syncs from them — later steps maintain
// internal copies from ch alone).
//
// The result is bit-for-bit the Result the full path's core.Repair would
// return on the rebuilt effective sub-market: same matching, same welfare
// floats, same round, message and cache counts.
func (inc *Incremental) Step(mu *matching.Matching, ch Churn, active, offline []bool, parent trace.SpanContext) (Result, error) {
	if !inc.ready {
		inc.sync(active, offline)
		if inc.met != nil {
			inc.met.coldSyncs.Inc()
		}
	} else {
		inc.apply(ch)
	}
	e := inc.eng

	// The full path validates the whole matching per step; here the session
	// maintains the invariant (it only unassigns, and arrivals join
	// unmatched), so only the event's own contract is re-checked — O(|event|).
	for _, j := range ch.Departed {
		if mu.IsMatched(j) {
			return Result{}, fmt.Errorf("core: incremental step: departed buyer %d still matched", j)
		}
	}
	for _, j := range ch.Arrived {
		if mu.IsMatched(j) {
			return Result{}, fmt.Errorf("core: incremental step: arrived buyer %d already matched", j)
		}
	}

	// The span keeps its historical name: dashboards and the serving
	// benchmark key on core.dirty.
	span := inc.opts.Flight.Start(parent, "core.dirty")
	defer span.End()
	e.runCtx = span.Context()

	res := Result{Matching: mu}
	res.StageI.Welfare = e.welfare(mu)
	solvesBefore := e.solves
	if err := e.runStageII(mu, &res); err != nil {
		return Result{}, fmt.Errorf("core: incremental step: %w", err)
	}

	// The engine's counters are cumulative across the session; Result and
	// the registry want this step's own contribution.
	total := e.cacheStats()
	res.Cache = CacheStats{
		Hits:        total.Hits - inc.prevCache.Hits,
		Independent: total.Independent - inc.prevCache.Independent,
		Misses:      total.Misses - inc.prevCache.Misses,
	}
	inc.prevCache = total
	stepSolves := e.solves - solvesBefore
	e.publish(&res, stepSolves)

	if inc.met != nil {
		inc.met.steps.Inc()
		inc.met.solves.Add(stepSolves)
		inc.met.memoHits.Add(int64(res.Cache.Hits + res.Cache.Independent))
	}
	annotateRun(&span, &res)
	return res, nil
}
