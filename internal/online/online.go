// Package online extends spectrum matching to dynamic markets, where
// service providers' demand changes over time — the operating regime that
// motivates DSA in the paper's introduction, though its evaluation is
// static. A Session holds a long-running matching over a fixed buyer
// population of which only a subset is active; arrivals and departures are
// handled *incrementally* with the Stage II repair operator instead of
// re-running the whole algorithm:
//
//   - a departure releases the buyer's channel,
//   - an arrival joins unmatched and competes through transfer applications
//     and invitations, which never evict incumbents.
//
// By default Step runs the repair on a persistent per-session engine
// (core.Incremental) that keeps effective prices, preference orders, and
// coalition memos alive across steps, so a step replays Stage II's rounds
// without a from-scratch market rebuild and re-solves only the coalitions
// its memo misses; see internal/core/incremental.go and DESIGN.md for the
// mechanism.
// Options.DisableIncremental routes every step through an effective-market
// rebuild plus core.Repair instead — the output is bit-identical either way
// (StepStats, matching, welfare floats), which the differential harness in
// this package and the churn benchguard enforce.
//
// Incremental repair keeps interference-freeness and individual
// rationality for the active sub-market after every event, because Stage
// II's mechanisms only need an interference-free starting state. Nash
// stability is restored in the common case but is not guaranteed from an
// arbitrary churn state: Phase 1's per-buyer preference cursor never
// rewinds, so a buyer rejected by a coalition that later shrinks (channel
// churn reshuffling demand) can keep a profitable unilateral move. The
// other price of incrementality is welfare: incumbents are never
// displaced, so a long-lived session can drift below what a fresh
// two-stage run would achieve. Session.Rebuild repairs both — it re-runs
// the full algorithm and (with adopt) keeps the better matching; the
// ablation harness quantifies the drift.
package online

import (
	"fmt"
	"math"

	"specmatch/internal/core"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/trace"
)

// BuyerMove relocates one virtual buyer to a new deployment position. The
// session re-derives the buyer's interference edges on every channel from
// the market's radio rule, so a move can both create and dissolve conflicts.
type BuyerMove struct {
	Buyer int        `json:"buyer"`
	To    geom.Point `json:"to"`
}

// Event is one batch of market churn, applied atomically before a repair
// pass. Buyer indices refer to the base market's virtual buyers; channel
// indices to its virtual sellers. Channel churn models the paper's core
// motivation — a provider sells spare spectrum while her demand is light
// and reclaims it (ChannelDown) when it grows.
type Event struct {
	Arrive      []int `json:"arrive,omitempty"`
	Depart      []int `json:"depart,omitempty"`
	ChannelUp   []int `json:"channel_up,omitempty"`
	ChannelDown []int `json:"channel_down,omitempty"`
	// Move relocates buyers (active or not) and rewires their interference
	// rows; it needs a market that retains geometry (market.HasGeometry).
	// Moves are applied in order, after all other churn in the event.
	Move []BuyerMove `json:"move,omitempty"`
}

// Validate checks every index in the event against a market with the given
// numbers of virtual channels and buyers, without applying anything. Step
// validates with it before mutating, so a rejected event leaves the session
// untouched; servers can call it up front to turn bad input into a client
// error before queueing work.
func (ev Event) Validate(channels, buyers int) error {
	for _, j := range ev.Depart {
		if j < 0 || j >= buyers {
			return fmt.Errorf("online: departing buyer %d out of range [0,%d)", j, buyers)
		}
	}
	for _, j := range ev.Arrive {
		if j < 0 || j >= buyers {
			return fmt.Errorf("online: arriving buyer %d out of range [0,%d)", j, buyers)
		}
	}
	for _, i := range ev.ChannelDown {
		if i < 0 || i >= channels {
			return fmt.Errorf("online: channel %d out of range [0,%d)", i, channels)
		}
	}
	for _, i := range ev.ChannelUp {
		if i < 0 || i >= channels {
			return fmt.Errorf("online: channel %d out of range [0,%d)", i, channels)
		}
	}
	for _, mv := range ev.Move {
		if mv.Buyer < 0 || mv.Buyer >= buyers {
			return fmt.Errorf("online: moving buyer %d out of range [0,%d)", mv.Buyer, buyers)
		}
		if !finitePoint(mv.To) {
			return fmt.Errorf("online: buyer %d move to non-finite position %v", mv.Buyer, mv.To)
		}
	}
	return nil
}

// finitePoint rejects NaN and infinite coordinates, which would poison every
// later distance comparison (NaN compares false, so a NaN-positioned buyer
// would silently drop all her geometric edges).
func finitePoint(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// Empty reports whether the event carries no churn at all.
func (ev Event) Empty() bool {
	return len(ev.Arrive) == 0 && len(ev.Depart) == 0 &&
		len(ev.ChannelUp) == 0 && len(ev.ChannelDown) == 0 && len(ev.Move) == 0
}

// StepStats reports one Step.
type StepStats struct {
	Arrived      int `json:"arrived"`
	Departed     int `json:"departed"`
	ChannelsUp   int `json:"channels_up"`
	ChannelsDown int `json:"channels_down"`
	// Displaced counts buyers who lost their channel to a reclaim or to a
	// move into conflict this step (before repair re-seats whoever it can).
	Displaced int `json:"displaced"`
	// Moved counts every applied move, including moves to the current
	// position — the count is a pure function of the event, so replays and
	// duplicate deliveries reproduce it exactly.
	Moved       int     `json:"moved"`
	Welfare     float64 `json:"welfare"`
	Matched     int     `json:"matched"`
	RepairMoves int     `json:"repair_moves"` // transfer + invitation rounds
}

// Session is a dynamic matching session. The zero value is not usable;
// construct with NewSession.
type Session struct {
	base    *market.Market
	opts    core.Options
	active  []bool
	offline []bool // channels withdrawn from the market
	mu      *matching.Matching
	steps   int

	// inc is the session's persistent incremental repair engine, created on
	// the first Step unless opts.DisableIncremental. Both paths are
	// bit-identical (the differential harness in this package proves it);
	// the incremental one skips the per-step effective-market rebuild.
	inc *core.Incremental

	// churn is a reusable per-step buffer: the step's effective
	// transitions.
	churn core.Churn
}

// NewSession starts a session on the given market with no active buyers and
// an empty matching. The session clones the market's mutable state (graphs,
// positions), so Move events never leak into the caller's instance — two
// sessions over one market stay independent, and replaying a trace against
// the same market always starts from the same geometry.
func NewSession(m *market.Market, opts core.Options) (*Session, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("online: invalid market: %w", err)
	}
	return &Session{
		base:    m.Clone(),
		opts:    opts,
		active:  make([]bool, m.N()),
		offline: make([]bool, m.M()),
		mu:      matching.New(m.M(), m.N()),
	}, nil
}

// ChannelOnline reports whether channel i is currently offered.
func (s *Session) ChannelOnline(i int) bool { return !s.offline[i] }

// Market returns the session's base market. The caller must not mutate it.
func (s *Session) Market() *market.Market { return s.base }

// Steps returns the number of successfully applied churn events.
func (s *Session) Steps() int { return s.steps }

// Recorder returns the protocol-event recorder the session's engine runs
// with; nil when event recording is off.
func (s *Session) Recorder() *trace.Recorder { return s.opts.Recorder }

// Matching returns the session's current matching. The caller must not
// mutate it; use Step and Rebuild.
func (s *Session) Matching() *matching.Matching { return s.mu }

// Active reports whether buyer j is currently in the market.
func (s *Session) Active(j int) bool { return s.active[j] }

// ActiveCount returns the number of active buyers.
func (s *Session) ActiveCount() int {
	count := 0
	for _, a := range s.active {
		if a {
			count++
		}
	}
	return count
}

// Welfare returns the current social welfare over active buyers.
func (s *Session) Welfare() float64 {
	return matching.Welfare(s.effectiveMarket(), s.mu)
}

// effectiveMarket derives the active sub-market: inactive buyers' price
// rows and offline channels' rows are zeroed, which removes them from every
// mechanism (nobody proposes to a zero-value channel, zero-price buyers
// never qualify for coalitions or invitations) without renumbering anyone.
func (s *Session) effectiveMarket() *market.Market {
	spec := s.base.Spec()
	prices := make([][]float64, len(spec.Prices))
	for i, row := range spec.Prices {
		newRow := make([]float64, len(row))
		if !s.offline[i] {
			for j, p := range row {
				if s.active[j] {
					newRow[j] = p
				}
			}
		}
		prices[i] = newRow
	}
	spec.Prices = prices
	m, err := market.FromSpec(spec)
	if err != nil {
		// The spec came from a validated market and zeroing prices cannot
		// invalidate it; reaching here is a programming error.
		panic(fmt.Sprintf("online: effective market invalid: %v", err))
	}
	return m
}

// Step applies one churn event and repairs the matching incrementally. The
// event is validated in full before anything is applied, so a failed Step
// leaves the session exactly as it was.
func (s *Session) Step(ev Event) (StepStats, error) {
	return s.StepTraced(ev, trace.SpanContext{})
}

// StepTraced is Step with an explicit trace parent: when the session's
// engine options carry a Flight, the step records an online.step span under
// parent (the serving layer passes its shard-op span) and the repair run's
// core spans nest beneath it.
func (s *Session) StepTraced(ev Event, parent trace.SpanContext) (StepStats, error) {
	span := s.opts.Flight.Start(parent, "online.step")
	defer span.End()
	var st StepStats
	if err := ev.Validate(len(s.offline), len(s.active)); err != nil {
		return st, err
	}
	if len(ev.Move) > 0 && !s.base.HasGeometry() {
		return st, fmt.Errorf("online: move events need a market with geometry (positions and ranges)")
	}
	// ch collects the effective transitions (no-op entries are dropped
	// above each append) for the incremental engine's delta pass.
	ch := &s.churn
	ch.Reset()
	for _, j := range ev.Depart {
		if !s.active[j] {
			continue
		}
		s.active[j] = false
		s.mu.Unassign(j)
		st.Departed++
		ch.Departed = append(ch.Departed, j)
	}
	for _, j := range ev.Arrive {
		if s.active[j] {
			continue
		}
		s.active[j] = true
		st.Arrived++
		ch.Arrived = append(ch.Arrived, j)
	}
	for _, i := range ev.ChannelDown {
		if s.offline[i] {
			continue
		}
		s.offline[i] = true
		st.ChannelsDown++
		ch.ChannelsDown = append(ch.ChannelsDown, i)
		// The reclaiming seller displaces her whole coalition. Unassign
		// clears only the member being visited, so the walk stays valid.
		st.Displaced += s.mu.CoalitionSize(i)
		s.mu.EachMember(i, func(j int) bool {
			s.mu.Unassign(j)
			return true
		})
	}
	for _, i := range ev.ChannelUp {
		if !s.offline[i] {
			continue
		}
		s.offline[i] = false
		st.ChannelsUp++
		ch.ChannelsUp = append(ch.ChannelsUp, i)
	}
	for _, mv := range ev.Move {
		j := mv.Buyer
		rewired, err := s.base.MoveBuyer(j, mv.To)
		if err != nil {
			// Unreachable after the geometry and Validate checks above.
			return st, fmt.Errorf("online: %w", err)
		}
		st.Moved++
		ch.Rewired = append(ch.Rewired, rewired...)
		// Only j's edges changed, so only j's own seat can have become
		// conflicted; the mover, not the incumbent, loses it.
		if i := s.mu.SellerOf(j); i != market.Unmatched {
			if s.base.Graph(i).ConflictsMask(j, s.mu.Members(i)) {
				s.mu.Unassign(j)
				st.Displaced++
			}
		}
	}

	var res core.Result
	var err error
	if s.opts.DisableIncremental {
		em := s.effectiveMarket()
		opts := s.opts
		opts.SpanParent = span.Context()
		res, err = core.Repair(em, s.mu, opts)
	} else {
		if s.inc == nil {
			s.inc = core.NewIncremental(s.base, s.opts)
		}
		res, err = s.inc.Step(s.mu, *ch, s.active, s.offline, span.Context())
	}
	if err != nil {
		return st, fmt.Errorf("online: repair: %w", err)
	}
	s.steps++
	st.Welfare = res.Welfare
	st.Matched = res.Matched
	st.RepairMoves = res.Phase1.Rounds + res.Phase2.Rounds
	if span.Active() {
		span.Annotate(fmt.Sprintf("step=%d arrived=%d departed=%d displaced=%d matched=%d welfare=%.6g",
			s.steps, st.Arrived, st.Departed, st.Displaced, st.Matched, st.Welfare))
	}
	return st, nil
}

// Rebuild re-runs the full two-stage algorithm over the active sub-market —
// the "fresh" reference the ablation compares incremental repair against.
// With adopt false it returns the fresh welfare without touching the session
// state. With adopt true the session keeps whichever matching has higher
// welfare — the fresh run or the incumbent incremental state — and returns
// the kept welfare, so adoption is monotone: both heuristics can win on a
// given instant, and a scheduled Rebuild(true) must never make a live
// session worse.
func (s *Session) Rebuild(adopt bool) (float64, error) {
	return s.RebuildTraced(adopt, trace.SpanContext{})
}

// RebuildTraced is Rebuild with an explicit trace parent, mirroring
// StepTraced: the fresh run's core spans nest under an online.rebuild span.
func (s *Session) RebuildTraced(adopt bool, parent trace.SpanContext) (float64, error) {
	span := s.opts.Flight.Start(parent, "online.rebuild")
	defer span.End()
	em := s.effectiveMarket()
	opts := s.opts
	opts.SpanParent = span.Context()
	res, err := core.Run(em, opts)
	if err != nil {
		return 0, fmt.Errorf("online: rebuild: %w", err)
	}
	welfare := res.Welfare
	adopted := adopt
	switch {
	case !adopt:
	case matching.Welfare(em, s.mu) > res.Welfare:
		welfare = matching.Welfare(em, s.mu)
		adopted = false
	default:
		s.mu = res.Matching
	}
	if span.Active() {
		span.Annotate(fmt.Sprintf("adopt=%t adopted=%t welfare=%.6g", adopt, adopted, welfare))
	}
	return welfare, nil
}

// Snapshot is a JSON-ready view of a session's current state — the payload
// behind specserved's GET /v1/sessions/{id}, and (paired with the market
// spec) the session's complete durable state: FromSnapshot rebuilds a
// Session from it that behaves bit-identically to the original under every
// future Step and Rebuild, which is what specserved's WAL checkpoints rely
// on.
type Snapshot struct {
	Channels int     `json:"channels"`
	Buyers   int     `json:"buyers"`
	Active   int     `json:"active"`
	Matched  int     `json:"matched"`
	Welfare  float64 `json:"welfare"`
	Steps    int     `json:"steps"`
	// OfflineChannels lists channels currently withdrawn by their sellers.
	OfflineChannels []int `json:"offline_channels,omitempty"`
	// ActiveBuyers lists the buyers currently in the market — the matched
	// ones are implied by Assignment, but arrived-yet-unmatched buyers are
	// state too (they compete in every later repair).
	ActiveBuyers []int `json:"active_buyers,omitempty"`
	// Assignment[j] is buyer j's seller, -1 (market.Unmatched) when
	// unmatched or inactive.
	Assignment []int `json:"assignment"`
}

// Snapshot captures the session's current state.
func (s *Session) Snapshot() Snapshot {
	snap := Snapshot{
		Channels: s.base.M(),
		Buyers:   s.base.N(),
		Active:   s.ActiveCount(),
		Matched:  s.mu.MatchedCount(),
		Welfare:  s.Welfare(),
		Steps:    s.steps,
	}
	for i, off := range s.offline {
		if off {
			snap.OfflineChannels = append(snap.OfflineChannels, i)
		}
	}
	for j, a := range s.active {
		if a {
			snap.ActiveBuyers = append(snap.ActiveBuyers, j)
		}
	}
	snap.Assignment = make([]int, s.base.N())
	for j := range snap.Assignment {
		snap.Assignment[j] = s.mu.SellerOf(j)
	}
	return snap
}

// FromSnapshot rebuilds a session from its market and a Snapshot, verifying
// the snapshot's internal consistency on the way in: dimensions must match
// the market, every matched buyer must be active and on an online channel,
// and the recomputed welfare and matched count must equal the recorded ones
// exactly (both survive a JSON round-trip bit-for-bit, so any drift means
// the snapshot does not describe a state this market can be in). The
// restored session is bit-equivalent to the one Snapshot was taken from:
// Step and Rebuild depend only on (market, active, offline, matching,
// opts), all of which are reproduced.
func FromSnapshot(m *market.Market, snap Snapshot, opts core.Options) (*Session, error) {
	if snap.Channels != m.M() || snap.Buyers != m.N() {
		return nil, fmt.Errorf("online: snapshot is %dx%d, market is %dx%d",
			snap.Channels, snap.Buyers, m.M(), m.N())
	}
	if len(snap.Assignment) != m.N() {
		return nil, fmt.Errorf("online: snapshot has %d assignments for %d buyers", len(snap.Assignment), m.N())
	}
	if snap.Steps < 0 {
		return nil, fmt.Errorf("online: snapshot has negative step count %d", snap.Steps)
	}
	s, err := NewSession(m, opts)
	if err != nil {
		return nil, err
	}
	for _, i := range snap.OfflineChannels {
		if i < 0 || i >= m.M() {
			return nil, fmt.Errorf("online: snapshot offline channel %d out of range [0,%d)", i, m.M())
		}
		s.offline[i] = true
	}
	for _, j := range snap.ActiveBuyers {
		if j < 0 || j >= m.N() {
			return nil, fmt.Errorf("online: snapshot active buyer %d out of range [0,%d)", j, m.N())
		}
		s.active[j] = true
	}
	for j, i := range snap.Assignment {
		if i == market.Unmatched {
			continue
		}
		if i < 0 || i >= m.M() {
			return nil, fmt.Errorf("online: snapshot assigns buyer %d to seller %d, out of range [0,%d)", j, i, m.M())
		}
		if !s.active[j] {
			return nil, fmt.Errorf("online: snapshot matches inactive buyer %d", j)
		}
		if s.offline[i] {
			return nil, fmt.Errorf("online: snapshot matches buyer %d to offline channel %d", j, i)
		}
		if err := s.mu.Assign(i, j); err != nil {
			return nil, fmt.Errorf("online: snapshot assignment: %w", err)
		}
	}
	s.steps = snap.Steps
	if got := s.ActiveCount(); got != snap.Active {
		return nil, fmt.Errorf("online: snapshot active count %d, listed buyers give %d", snap.Active, got)
	}
	if got := s.mu.MatchedCount(); got != snap.Matched {
		return nil, fmt.Errorf("online: snapshot matched count %d, assignment gives %d", snap.Matched, got)
	}
	if got := s.Welfare(); got != snap.Welfare {
		return nil, fmt.Errorf("online: snapshot welfare %v, restored state gives %v", snap.Welfare, got)
	}
	return s, nil
}
