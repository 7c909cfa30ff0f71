package core

import (
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
// candidate scratch of the coalition decision.
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
	canon   coalitionScratch

	// The run's own counters. A fresh engine runs once; the persistent
	// incremental engine zeroes them at the start of each step.
	solves    int64      // MWIS solves actually executed
	evictions int64      // Stage I evictions
	cache     CacheStats // coalition decisions by how they were reached

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

	// spanAttrs holds each core.solve and core.round attribute string this
	// engine has formatted, so the spans it records share one string per
	// key instead of each holding its own. Allocated on first use.
	spanAttrs map[spanAttrKey]string
}

// spanAttrKey identifies one span attribute string: a core.solve span's
// (src, seller, candidates) or a core.round span's (stage, round,
// messages). The src and stage names are disjoint, so the two never collide.
type spanAttrKey struct {
	name string
	a, b int
}

// maxSpanAttrs bounds an engine's spanAttrs. When full the map is dropped
// and restarts empty.
const maxSpanAttrs = 1 << 12

// solveAttrs returns the attribute string of a core.solve span.
func (e *engine) solveAttrs(seller, candidates int, src string) string {
	key := spanAttrKey{src, seller, candidates}
	if s, ok := e.spanAttrs[key]; ok {
		return s
	}
	return e.keepSpanAttrs(key, "seller="+itoa(seller)+" candidates="+itoa(candidates)+" src="+src)
}

// roundAttrs returns the attribute string of a core.round span.
func (e *engine) roundAttrs(stage string, round, messages int) string {
	key := spanAttrKey{stage, round, messages}
	if s, ok := e.spanAttrs[key]; ok {
		return s
	}
	return e.keepSpanAttrs(key, "stage="+stage+" round="+itoa(round)+" messages="+itoa(messages))
}

// keepSpanAttrs stores a newly formatted attribute string under key.
func (e *engine) keepSpanAttrs(key spanAttrKey, attrs string) string {
	if e.spanAttrs == nil || len(e.spanAttrs) >= maxSpanAttrs {
		e.spanAttrs = make(map[spanAttrKey]string)
	}
	e.spanAttrs[key] = attrs
	return attrs
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

// publish flushes one run's aggregate counters onto the registry.
func (e *engine) publish(res *Result) {
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
	reg.Counter("core.mwis.solves").Add(e.solves)
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
		span.Annotate(e.roundAttrs(stage, round, messages))
	}
	span.End()
}

// coalition returns seller i's most-preferred coalition among the candidate
// buyers: the MWIS of the candidates on her channel's interference graph
// weighted by her price row. Unless Options.DisableCoalitionCache is set it
// first canonicalizes the candidate set and skips the solve when the set is
// pairwise interference-free (every solver provably returns the whole set).
// Each call decides afresh: GWMIN is linear-time, so nothing is memoized.
// The returned slice is the caller's own; Stage I keeps it as the seller's
// waiting list.
//
// Every call records a core.solve span under the current round, annotated
// with the seller, candidate count, and how the decision was reached
// (src=solve|independent|empty). Both stages call it only with candidates
// of positive price — Phase 1 rejects outright a seller's applicants when
// none is compatible — so src=empty is not recorded.
func (e *engine) coalition(i int, candidates []int) ([]int, error) {
	span := e.fl.Start(e.roundCtx, "core.solve")
	sel, src, err := e.decideCoalition(i, candidates)
	if span.Active() {
		span.Annotate(e.solveAttrs(i, len(candidates), src))
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
	g := e.m.Graph(i)
	if e.opts.DisableCoalitionCache {
		e.solves++
		sel, err := e.solvers[i].Solve(e.opts.MWIS, g, e.rows[i], candidates)
		return sel, "solve", err
	}
	canon, err := e.canon.canonicalize(g, e.rows[i], candidates)
	if err != nil {
		return nil, "", err
	}
	if len(canon) == 0 {
		return nil, "empty", nil
	}
	if e.canon.isIndependent(g, canon) {
		// Fast path: a pairwise interference-free candidate set with
		// positive weights is its own maximum-weight independent set, and
		// every solver in package mwis returns exactly that set (GWMIN/
		// GWMIN2 select every vertex since selections delete no candidates,
		// GWMAX finds the induced subgraph already edgeless, Exact takes
		// everything), sorted ascending — which canon already is. canon is
		// scratch, so the caller gets a copy.
		e.cache.Independent++
		return append([]int(nil), canon...), "independent", nil
	}
	e.cache.Misses++
	e.solves++
	sel, err := e.solvers[i].Solve(e.opts.MWIS, g, e.rows[i], canon)
	if err != nil {
		return nil, "", err
	}
	return sel, "solve", nil
}

// coalitionScratch is the coalition decision's reusable candidate scratch.
// The engine is sequential and no decision outlives its call, so one
// scratch serves every seller.
type coalitionScratch struct {
	sorted []int      // canonical candidate set
	mask   graph.Bits // membership mask for the independence test
}

// canonicalize filters the candidates to positive-weight vertices, sorts and
// deduplicates them, mirroring the solvers' own cleaning, so the set is
// exactly the one a solve would decide.
func (c *coalitionScratch) canonicalize(g *graph.Graph, weights []float64, candidates []int) ([]int, error) {
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
	return dedup, nil
}

// isIndependent reports whether no two vertices of set are adjacent in g —
// one AND-any word sweep per member against the scratch membership mask.
func (c *coalitionScratch) isIndependent(g *graph.Graph, set []int) bool {
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
