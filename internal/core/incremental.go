// Incremental repair: the persistent churn engine behind package online.
//
// The full Step path rebuilds the effective sub-market — M interference
// graphs, M×N price rows — on every event, then runs Stage II over it. The
// Incremental engine keeps one Stage II engine alive for a session's whole
// lifetime and feeds it deltas instead:
//
//   - the effective price rows are maintained in place: a step re-derives
//     the column of each buyer and the row of each channel the event
//     changed, from the session's own active and offline flags, which the
//     engine reads and never copies;
//   - buyer preference orders are computed once against the base market —
//     the transfer phase's strict-improvement test skips zeroed entries
//     inline, so the base orders replay the exact application schedule the
//     per-step effective orders would produce;
//   - no coalition decision is remembered, within a step or across steps:
//     each is decided afresh by the independent-set test or an MWIS solve,
//     so a session's engine holds only state sized by its market, never by
//     its history, and a Move, which rewires graphs in place, invalidates
//     nothing.
//
// The replay is exact by construction: every protocol round, message,
// decision, welfare sum and StepStats field is bit-for-bit identical to the
// full path's. The win is eliminating the per-step rebuild, not changing the
// protocol — round structure is global, so a step still replays every
// round. Phase 1 scans only the buyers who can still apply: a buyer leaves
// the scan in the round she makes no application, and her cursor ends as
// soon as no later entry can beat her utility. A step therefore costs O(M)
// per changed buyer and O(N) per changed channel to re-derive their columns
// and rows, O(N) to set up the cursors, O(rounds · live buyers) application
// scanning, one O(N) welfare sum of one price read per buyer (after Phase
// 2), and the MWIS solves of the candidate sets that are not independent,
// which the core.incremental.solves counter reports (memo_hits counts the
// independent ones).
package core

import (
	"fmt"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// Churn names what one online step changed in a session: Buyers whose
// activity flipped (a departure or an arrival) and Channels whose offer
// flipped (a reclaim or a re-offer). Order carries no meaning and an index
// may repeat: a buyer who departs and re-arrives in one event is listed
// twice. The engine re-derives each listed buyer's column and channel's row
// from the session's final flags, so the order in which the session applied
// the event does not matter. Buyer moves are not listed: they change no
// price, and the engine reads the session's rewired graphs directly.
// Incremental.Step reads a Churn and never retains it, so callers may reuse
// one across steps (see Reset).
type Churn struct {
	Buyers   []int
	Channels []int
}

// Reset empties c for reuse, keeping every list's storage.
func (c *Churn) Reset() {
	*c = Churn{Buyers: c.Buyers[:0], Channels: c.Channels[:0]}
}

// incMetrics holds the incremental engine's observability handles; nil when
// the session runs without a registry.
type incMetrics struct {
	steps     *obs.Counter
	coldSyncs *obs.Counter
	solves    *obs.Counter
	memoHits  *obs.Counter
}

// Incremental is a persistent repair engine bound to one base market and
// one online session. It keeps no copy of the session's active and offline
// flags: each Step reads them. Construct with NewIncremental; Step replaces
// the session's per-event Repair call. Not safe for concurrent use —
// sessions are single-writer.
type Incremental struct {
	m    *market.Market
	opts Options
	eng  *engine

	basePref [][]int // per-buyer base-market preference orders, computed once
	prefView [][]int // entry j aliases basePref[j] while j is active, nil otherwise

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

// start allocates the engine on the first Step and derives every price row
// and preference view from the session's flags.
func (inc *Incremental) start(active, offline []bool) {
	inc.eng = newEngine(inc.m, inc.opts)
	inc.basePref = make([][]int, len(active))
	inc.prefView = make([][]int, len(active))
	inc.eng.basePref = inc.prefView
	for j := range active {
		inc.basePref[j] = inc.m.BuyerPrefOrder(j)
		if active[j] {
			inc.prefView[j] = inc.basePref[j]
		}
	}
	for i := range offline {
		inc.setChannel(i, active, offline)
	}
	if inc.met != nil {
		inc.met.coldSyncs.Inc()
	}
}

// setBuyer derives buyer j's price column and preference view from the
// session's flags.
func (inc *Incremental) setBuyer(j int, active, offline []bool) {
	inc.prefView[j] = nil
	if active[j] {
		inc.prefView[j] = inc.basePref[j]
	}
	for i, row := range inc.eng.rows {
		row[j] = inc.price(i, j, active, offline)
	}
}

// setChannel derives channel i's price row from the session's flags.
func (inc *Incremental) setChannel(i int, active, offline []bool) {
	row := inc.eng.rows[i]
	for j := range row {
		row[j] = inc.price(i, j, active, offline)
	}
}

// price is seller i's effective price for buyer j: the base price while j
// is active and channel i online, zero otherwise.
func (inc *Incremental) price(i, j int, active, offline []bool) float64 {
	if active[j] && !offline[i] {
		return inc.m.Price(i, j)
	}
	return 0
}

// Step repairs mu after one churn event, replacing the full path's
// effective-market rebuild + Repair with an in-place delta pass. The session
// must have already applied the event to mu (departed and displaced buyers
// unassigned, arrivals active but unmatched) and to active and offline, its
// post-event flags, which Step reads and never writes. The first Step
// derives every row from the flags; later steps re-derive only what ch
// names.
//
// The matching, the welfare floats and the round and message counts are
// bit-for-bit those the full path's core.Repair returns on the rebuilt
// effective sub-market, and so are the cache counts: both decide every
// coalition afresh. Like Repair, a step runs no Stage I and sums no Phase 1
// welfare, so Result.StageI and Result.Phase1.Welfare stay zero.
func (inc *Incremental) Step(mu *matching.Matching, ch Churn, active, offline []bool, parent trace.SpanContext) (Result, error) {
	if inc.eng == nil {
		inc.start(active, offline)
	} else {
		for _, j := range ch.Buyers {
			inc.setBuyer(j, active, offline)
		}
		for _, i := range ch.Channels {
			inc.setChannel(i, active, offline)
		}
	}
	e := inc.eng

	// The full path validates the whole matching per step; here the session
	// maintains the invariant (it only unassigns, and arrivals join
	// unmatched), so only the event's own contract is re-checked, in
	// O(|event|): a buyer whose activity changed is unmatched.
	for _, j := range ch.Buyers {
		if mu.IsMatched(j) {
			return Result{}, fmt.Errorf("core: incremental step: buyer %d changed activity but is matched", j)
		}
	}

	// The span keeps its historical name: dashboards and the serving
	// benchmark key on core.dirty.
	span := inc.opts.Flight.Start(parent, "core.dirty")
	defer span.End()
	e.runCtx = span.Context()

	e.solves, e.evictions, e.cache = 0, 0, CacheStats{}
	res := Result{Matching: mu}
	if err := e.runStageII(mu, &res, false); err != nil {
		return Result{}, fmt.Errorf("core: incremental step: %w", err)
	}
	e.publish(&res)

	if inc.met != nil {
		inc.met.steps.Inc()
		inc.met.solves.Add(e.solves)
		inc.met.memoHits.Add(int64(res.Cache.Independent))
	}
	annotateRun(&span, &res)
	return res, nil
}
