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
//     (the graph is an input to every memoized decision);
//   - the dirty neighborhood of the event (churned buyers plus their
//     interference closure across online channels, via the graph package's
//     word-parallel UnionRowsInto kernel) bounds where new MWIS work can
//     arise and is exported through core.incremental.* metrics and the
//     core.dirty span.
//
// The replay is exact by construction: every protocol round, message,
// decision, welfare sum and StepStats field is bit-for-bit identical to the
// full path's. The win is eliminating the per-step rebuild and steady-state
// allocation, not changing the protocol — round structure is global (every
// active buyer's cursor advances each phase), so only the expensive parts
// (market construction, MWIS solves, scratch churn) contract to the dirty
// region.
package core

import (
	"fmt"

	"specmatch/internal/graph"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// Churn describes the effective deltas one online step applied to a session,
// in application order: Departed buyers were deactivated (and unassigned),
// Arrived buyers activated, ChannelsDown reclaimed (displacing the listed
// Displaced buyers), ChannelsUp re-offered. Lists carry only real
// transitions — a departure of an already-inactive buyer never appears.
// Incremental.Step reads a Churn and never retains it, so callers may reuse
// one across steps (see Reset).
type Churn struct {
	Arrived      []int
	Departed     []int
	Displaced    []int
	ChannelsUp   []int
	ChannelsDown []int

	// Moved lists buyers relocated by the step (the session already rewired
	// the base market's graphs). MovedOldNbrs is a bitset over buyers: the
	// OR of every mover's pre-move interference rows across channels, nil
	// when nobody moved. It lets the dirty closure cover dissolved conflicts
	// as well as created ones. It may be the caller's reusable scratch, so
	// the engine reads it during Step and never retains it. Rewired lists
	// the channels whose graph actually changed; the engine drops those
	// channels' coalition memos, which would otherwise pin decisions made
	// against the old graph.
	Moved        []int
	MovedOldNbrs graph.Bits
	Rewired      []int
}

// Reset empties c for reuse, keeping every list's storage; MovedOldNbrs,
// which the caller owns, becomes nil.
func (c *Churn) Reset() {
	*c = Churn{
		Arrived:      c.Arrived[:0],
		Departed:     c.Departed[:0],
		Displaced:    c.Displaced[:0],
		ChannelsUp:   c.ChannelsUp[:0],
		ChannelsDown: c.ChannelsDown[:0],
		Moved:        c.Moved[:0],
		Rewired:      c.Rewired[:0],
	}
}

// incMetrics holds the incremental engine's observability handles; nil when
// the session runs without a registry.
type incMetrics struct {
	steps        *obs.Counter
	coldSyncs    *obs.Counter
	dirtyBuyers  *obs.Counter
	dirtySellers *obs.Counter
	solves       *obs.Counter
	memoHits     *obs.Counter
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

	seed     graph.Bits // churned buyers
	closure  graph.Bits // seed ∪ N(seed) across online channels
	dirtySel graph.Bits // sellers the dirty region can reach

	prevSolves int64      // cumulative engine solves at the end of the last step
	prevCache  CacheStats // cumulative memo counters at the end of the last step

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
			steps:        opts.Metrics.Counter("core.incremental.steps"),
			coldSyncs:    opts.Metrics.Counter("core.incremental.cold_syncs"),
			dirtyBuyers:  opts.Metrics.Counter("core.incremental.dirty_buyers"),
			dirtySellers: opts.Metrics.Counter("core.incremental.dirty_sellers"),
			solves:       opts.Metrics.Counter("core.incremental.solves"),
			memoHits:     opts.Metrics.Counter("core.incremental.memo_hits"),
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
		inc.seed = graph.NewBits(numBuyers)
		inc.closure = graph.NewBits(numBuyers)
		inc.dirtySel = graph.NewBits(numSellers)
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

// computeDirty derives the event's dirty neighborhood: the churned buyers
// (all active buyers on a cold start) plus their one-hop interference
// closure across every online channel, and the sellers that region can
// reach. This is the a-priori bound on where repair can create new MWIS
// work; round structure itself stays global (see the package comment).
func (inc *Incremental) computeDirty(ch Churn, cold bool) (dirtyBuyers, dirtySellers int) {
	numSellers := inc.m.M()
	inc.seed.Reset()
	inc.closure.Reset()
	inc.dirtySel.Reset()
	if cold {
		for j, a := range inc.active {
			if a {
				inc.seed.Set(j)
			}
		}
	} else {
		for _, j := range ch.Arrived {
			inc.seed.Set(j)
		}
		for _, j := range ch.Departed {
			inc.seed.Set(j)
		}
		for _, j := range ch.Displaced {
			inc.seed.Set(j)
		}
		// A moved buyer dirties both neighborhoods: the new one via her own
		// (already rewired) rows, the old one via the pre-move rows the
		// session ORed together before rewiring.
		for _, j := range ch.Moved {
			inc.seed.Set(j)
		}
		inc.seed.Or(ch.MovedOldNbrs)
	}
	inc.closure.Or(inc.seed)
	for i := 0; i < numSellers; i++ {
		if inc.offline[i] {
			continue
		}
		inc.m.Graph(i).UnionRowsInto(inc.seed, inc.closure)
	}
	for _, i := range ch.ChannelsDown {
		inc.dirtySel.Set(i)
	}
	for _, i := range ch.ChannelsUp {
		inc.dirtySel.Set(i)
	}
	for _, i := range ch.Rewired {
		inc.dirtySel.Set(i)
	}
	inc.closure.ForEach(func(j int) bool {
		for i := 0; i < numSellers; i++ {
			if !inc.offline[i] && inc.eng.rows[i][j] > 0 {
				inc.dirtySel.Set(i)
			}
		}
		return true
	})
	return inc.closure.Count(), inc.dirtySel.Count()
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
	cold := !inc.ready
	if cold {
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

	span := inc.opts.Flight.Start(parent, "core.dirty")
	defer span.End()
	e.runCtx = span.Context()

	dirtyBuyers, dirtySellers := inc.computeDirty(ch, cold)

	res := Result{Matching: mu}
	res.StageI.Welfare = e.welfare(mu)
	solvesBefore := e.solves.Load()

	var inviteLists [][]int
	if !inc.opts.SkipTransfer {
		var err error
		var phase1 StageStats
		inviteLists, phase1, err = e.runTransfer(mu)
		if err != nil {
			return Result{}, fmt.Errorf("core: incremental transfer: %w", err)
		}
		res.Phase1 = phase1
	}
	res.Phase1.Welfare = e.welfare(mu)

	if !inc.opts.SkipInvitation {
		phase2, err := e.runInvitation(mu, inviteLists)
		if err != nil {
			return Result{}, fmt.Errorf("core: incremental invitation: %w", err)
		}
		res.Phase2 = phase2
	}
	res.Phase2.Welfare = e.welfare(mu)

	res.Welfare = res.Phase2.Welfare
	res.Matched = mu.MatchedCount()

	// The engine's counters are cumulative across the session; Result and
	// the registry want this step's own contribution.
	total := e.cacheStats()
	res.Cache = CacheStats{
		Hits:        total.Hits - inc.prevCache.Hits,
		Independent: total.Independent - inc.prevCache.Independent,
		Misses:      total.Misses - inc.prevCache.Misses,
	}
	inc.prevCache = total
	stepSolves := e.solves.Load() - solvesBefore
	inc.prevSolves += stepSolves
	e.publish(&res, stepSolves)

	if inc.met != nil {
		inc.met.steps.Inc()
		inc.met.dirtyBuyers.Add(int64(dirtyBuyers))
		inc.met.dirtySellers.Add(int64(dirtySellers))
		inc.met.solves.Add(stepSolves)
		inc.met.memoHits.Add(int64(res.Cache.Hits + res.Cache.Independent))
	}
	if span.Active() {
		span.Annotate(fmt.Sprintf("dirty_buyers=%d dirty_sellers=%d rounds=%d matched=%d welfare=%.6g",
			dirtyBuyers, dirtySellers, res.TotalRounds(), res.Matched, res.Welfare))
	}
	return res, nil
}
