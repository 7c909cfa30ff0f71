package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"time"

	"specmatch/internal/graph"
	"specmatch/internal/market"
	"specmatch/internal/mwis"
	"specmatch/internal/obs"
	"specmatch/internal/trace"
)

// engine holds the per-run state shared by both stages: the materialized
// price rows, one MWIS solver (reusable scratch buffers) per seller, and the
// per-seller incremental coalition caches.
//
// The engine is sequential. Each round decides and applies every seller in
// seller-ID order, which is the paper's synchronous round: seller i's
// decision reads only the round's proposal batch (or the coalition snapshot
// taken before any seller decides) plus seller-i state, so applying seller
// i's decision never changes what a later seller decides in the same round.
type engine struct {
	m    *market.Market
	opts Options
	rows [][]float64

	// basePref, when non-nil, overrides the per-buyer preference orders used
	// by runTransfer: entry j is buyer j's descending preference order over
	// the *base* market, or nil when the buyer is inactive. The incremental
	// engine owns and maintains the slice; the full path leaves it nil and
	// derives orders from its own (effective) market.
	basePref [][]int

	// s2 pools the Stage II buffers. Allocated on first use; the persistent
	// incremental engine reuses it across steps.
	s2 *stage2State

	solvers []mwis.Solver
	caches  []coalitionCache // nil when Options.DisableCoalitionCache

	solves    int64 // MWIS solves actually executed
	evictions int64 // Stage I evictions

	// reg and rounds (core.round_seconds) are Options.Metrics and its round
	// histogram; both are nil when instrumentation is off, which keeps the
	// disabled path to a single pointer check per round.
	reg    *obs.Registry
	rounds *obs.Histogram

	// fl and the two span contexts drive causal tracing. runCtx parents the
	// per-round spans; roundCtx parents the per-seller core.solve spans.
	fl       *trace.Flight
	runCtx   trace.SpanContext
	roundCtx trace.SpanContext
}

// roundTimer starts timing one engine round; zero when observability is off.
func (e *engine) roundTimer() time.Time {
	if e.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeRound records one round's wall time.
func (e *engine) observeRound(start time.Time) {
	if e.reg == nil {
		return
	}
	e.rounds.Observe(time.Since(start).Seconds())
}

// publish flushes one run's aggregate counters onto the registry. solves is
// the run's own MWIS solve count — for a fresh engine that is the cumulative
// e.solves, but the persistent incremental engine passes the per-step delta
// so registry totals stay additive.
func (e *engine) publish(res *Result, solves int64) {
	reg := e.reg
	if reg == nil {
		return
	}
	reg.Counter("core.runs").Inc()
	reg.Counter("core.rounds.stage_i").Add(int64(res.StageI.Rounds))
	reg.Counter("core.rounds.phase_1").Add(int64(res.Phase1.Rounds))
	reg.Counter("core.rounds.phase_2").Add(int64(res.Phase2.Rounds))
	reg.Counter("core.messages.stage_i").Add(int64(res.StageI.Messages))
	reg.Counter("core.messages.phase_1").Add(int64(res.Phase1.Messages))
	reg.Counter("core.messages.phase_2").Add(int64(res.Phase2.Messages))
	reg.Counter("core.mwis.solves").Add(solves)
	reg.Counter("core.cache.hits").Add(int64(res.Cache.Hits))
	reg.Counter("core.cache.independent").Add(int64(res.Cache.Independent))
	reg.Counter("core.cache.misses").Add(int64(res.Cache.Misses))
	reg.Counter("core.evictions").Add(e.evictions)
	reg.Counter("core.invitations").Add(int64(res.Phase2.Messages))
}

func newEngine(m *market.Market, opts Options) *engine {
	numSellers := m.M()
	e := &engine{
		m:       m,
		opts:    opts,
		rows:    priceRows(m),
		solvers: make([]mwis.Solver, numSellers),
	}
	if !opts.DisableCoalitionCache {
		e.caches = make([]coalitionCache, numSellers)
	}
	e.fl = opts.Flight
	// The stand-alone entry point RunStageI has no run root; parenting its
	// rounds on SpanParent keeps them in one trace.
	e.runCtx = opts.SpanParent
	if opts.Metrics != nil {
		e.reg = opts.Metrics
		e.rounds = opts.Metrics.Histogram("core.round_seconds", obs.TimeBuckets())
	}
	return e
}

// startRound opens one core.round span and points roundCtx at it so the
// round's coalition decisions parent correctly.
func (e *engine) startRound() trace.SpanHandle {
	span := e.fl.Start(e.runCtx, "core.round")
	e.roundCtx = span.Context()
	return span
}

// endRound annotates and closes one round span. The terminating probe round
// (no messages made) never reaches here, so its span is silently discarded —
// un-Ended spans are never recorded.
func (e *engine) endRound(span *trace.SpanHandle, stage string, round, messages int) {
	if span.Active() {
		span.Annotate("stage=" + stage + " round=" + itoa(round) + " messages=" + itoa(messages))
	}
	span.End()
}

// coalition returns seller i's most-preferred coalition among the candidate
// buyers: the MWIS of the candidates on her channel's interference graph
// weighted by her price row. With the cache enabled it first canonicalizes
// the candidate set and skips the solve when the set was already decided
// this run (memo hit) or is pairwise interference-free (every solver
// provably returns the whole set). Returned slices may be shared with the
// cache and with earlier callers; coalition slices are never mutated.
//
// Every decision — including cache hits — records a core.solve span under the
// current round, annotated with the seller, candidate count, and how the
// decision was reached (src=solve|hit|independent|empty).
func (e *engine) coalition(i int, candidates []int) ([]int, error) {
	span := e.fl.Start(e.roundCtx, "core.solve")
	sel, src, err := e.decideCoalition(i, candidates)
	if span.Active() {
		span.Annotate("seller=" + itoa(i) + " candidates=" + itoa(len(candidates)) + " src=" + src)
		if err != nil {
			span.Annotate("err=1")
		}
	}
	span.End()
	return sel, err
}

// itoa is strconv.Itoa under a name short enough for span-attr call sites.
func itoa(v int) string { return strconv.Itoa(v) }

func (e *engine) decideCoalition(i int, candidates []int) ([]int, string, error) {
	if e.caches == nil {
		e.solves++
		sel, err := e.solvers[i].Solve(e.opts.MWIS, e.m.Graph(i), e.rows[i], candidates)
		return sel, "solve", err
	}
	c := &e.caches[i]
	g := e.m.Graph(i)
	canon, err := c.canonicalize(g, e.rows[i], candidates)
	if err != nil {
		return nil, "", err
	}
	if len(canon) == 0 {
		return nil, "empty", nil
	}
	key := string(c.key)
	if sel, ok := c.entries[key]; ok {
		c.hits++
		return sel, "hit", nil
	}
	var sel []int
	src := "solve"
	if c.isIndependent(g, canon) {
		// Fast path: a pairwise interference-free candidate set with
		// positive weights is its own maximum-weight independent set, and
		// every solver in package mwis returns exactly that set (GWMIN/
		// GWMIN2 select every vertex since selections delete no candidates,
		// GWMAX finds the induced subgraph already edgeless, Exact takes
		// everything), sorted ascending — which canon already is.
		c.independent++
		src = "independent"
		sel = append([]int(nil), canon...)
	} else {
		c.misses++
		e.solves++
		sel, err = e.solvers[i].Solve(e.opts.MWIS, g, e.rows[i], canon)
		if err != nil {
			return nil, "", err
		}
	}
	if c.entries == nil || len(c.entries) >= maxCoalitionCacheEntries {
		c.entries = make(map[string][]int)
	}
	c.entries[key] = sel
	return sel, src, nil
}

// cacheStats sums the per-seller counters.
func (e *engine) cacheStats() CacheStats {
	var cs CacheStats
	for i := range e.caches {
		cs.Hits += e.caches[i].hits
		cs.Independent += e.caches[i].independent
		cs.Misses += e.caches[i].misses
	}
	return cs
}

// maxCoalitionCacheEntries bounds one seller's memo. A fresh per-run engine
// never comes close; the bound exists for the persistent incremental engine,
// whose memo accumulates across a session's whole lifetime. When full the
// memo is simply dropped and restarts empty — the only cost is re-solving
// sets already decided, never a wrong coalition.
const maxCoalitionCacheEntries = 1 << 14

// coalitionCache memoizes one seller's coalition decisions, keyed on the
// canonical candidate buyer set. Every input other than the candidate set —
// the channel's interference graph, the price row, the MWIS algorithm — is
// fixed for a seller within a run, and every solver is deterministic, so
// equal candidate sets always yield equal coalitions. Entries are never
// invalidated within a run for the same reason — and this extends across
// the steps of an incremental session, where the rows handed to the solver
// are always the base prices filtered to active buyers and canonicalize
// drops zero-weight (inactive) candidates, so a canonical set pins the
// decision regardless of which step produced it. The one exception is
// mobility: a Move event rewires a channel's interference graph, which is
// part of the decision a memoized set pins, so the incremental engine drops
// the rewired channel's whole memo (Churn.Rewired) — drop, never patch,
// matching the capacity policy below.
type coalitionCache struct {
	entries map[string][]int
	sorted  []int      // scratch: canonical candidate set
	key     []byte     // scratch: delta-varint encoding of sorted
	mask    graph.Bits // scratch: membership mask for the independence test

	hits, independent, misses int
}

// canonicalize filters the candidates to positive-weight vertices, sorts and
// deduplicates them (mirroring the solvers' own cleaning, so the cache key
// identifies the decision exactly), and builds the lookup key into c.key.
func (c *coalitionCache) canonicalize(g *graph.Graph, weights []float64, candidates []int) ([]int, error) {
	out := c.sorted[:0]
	for _, v := range candidates {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("coalition candidate %d out of range [0,%d)", v, g.N())
		}
		if weights[v] > 0 {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	dedup := out[:0]
	for k, v := range out {
		if k == 0 || v != out[k-1] {
			dedup = append(dedup, v)
		}
	}
	c.sorted = dedup
	c.key = c.key[:0]
	prev := 0
	for _, v := range dedup { // delta-encoded: ids are sorted and distinct
		c.key = binary.AppendUvarint(c.key, uint64(v-prev))
		prev = v
	}
	return dedup, nil
}

// isIndependent reports whether no two vertices of set are adjacent in g —
// one AND-any word sweep per member against the cache's membership mask.
func (c *coalitionCache) isIndependent(g *graph.Graph, set []int) bool {
	if len(c.mask) < g.Words() {
		c.mask = make(graph.Bits, g.Words())
	}
	for _, v := range set {
		c.mask.Set(v)
	}
	independent := g.IsIndependentMask(set, c.mask)
	for _, v := range set {
		c.mask.Clear(v)
	}
	return independent
}
