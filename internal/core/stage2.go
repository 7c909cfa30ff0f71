package core

import (
	"fmt"
	"sort"

	"specmatch/internal/graph"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/trace"
)

// utility is buyer j's utility under mu, read from the engine's price rows.
// All matchings this engine handles are interference-free, so it is her
// matched price or zero.
func (e *engine) utility(mu *matching.Matching, j int) float64 {
	i := mu.SellerOf(j)
	if i == market.Unmatched {
		return 0
	}
	return e.rows[i][j]
}

// buyerUtility is matching.BuyerUtilityIn evaluated against the engine's
// price rows: buyer j's matched price if her coalition is interference-free
// around her, else zero. Identical float values and term structure, so
// welfare sums agree bit-for-bit with the market-based computation.
func (e *engine) buyerUtility(mu *matching.Matching, j int) float64 {
	i := mu.SellerOf(j)
	if i == market.Unmatched {
		return 0
	}
	// j's own bit is never in her adjacency row (no self-loops), so the
	// word-parallel intersection needs no j2 != j exclusion.
	if graph.AndAny(e.m.Graph(i).Row(j), mu.Members(i)) {
		return 0
	}
	return e.rows[i][j]
}

// welfare is matching.Welfare against the engine's rows: the sum over buyers
// in ascending ID order of buyerUtility. The ascending order is load-bearing
// — it is the float accumulation order the package's golden welfare values
// were recorded under.
func (e *engine) welfare(mu *matching.Matching) float64 {
	total := 0.0
	for j := 0; j < mu.N(); j++ {
		total += e.buyerUtility(mu, j)
	}
	return total
}

// stage2State pools every per-run Stage II buffer. A fresh engine (one run)
// allocates it once; the persistent incremental engine reuses it across
// steps, which removes all steady-state allocation from the churn hot path.
// All slices are sized to the market's seller/buyer counts, which are fixed
// for an engine's lifetime.
type stage2State struct {
	prefOrder   [][]int      // per-buyer descending preference order for this run
	next        []int        // per-buyer cursor into prefOrder
	applicants  [][]int      // per-seller transfer applicants this round
	snapMask    []graph.Bits // per-seller coalition screening mask, lazily allocated, overwritten wholesale per use
	compat      [][]int      // per-seller compatible-applicant buffer
	inviteLists [][]int      // R_i accumulated across Phase 1, in arrival order
	inInvite    []graph.Bits // per-seller dedup for inviteLists, lazily allocated
	granted     graph.Bits   // merge-loop scratch over buyers, kept clear between uses
	pending     [][]int      // Phase 2 per-seller invitation queues
	invBuyers   []int        // Phase 2: buyers invited this round
	invSellers  [][]int      // Phase 2: per-buyer inviting sellers this round
}

// stage2 returns the engine's pooled Stage II state, allocating it on first
// use.
func (e *engine) stage2() *stage2State {
	if e.s2 != nil {
		return e.s2
	}
	numSellers, numBuyers := e.m.M(), e.m.N()
	e.s2 = &stage2State{
		prefOrder:   make([][]int, numBuyers),
		next:        make([]int, numBuyers),
		applicants:  make([][]int, numSellers),
		snapMask:    make([]graph.Bits, numSellers),
		compat:      make([][]int, numSellers),
		inviteLists: make([][]int, numSellers),
		inInvite:    make([]graph.Bits, numSellers),
		granted:     graph.NewBits(numBuyers),
		pending:     make([][]int, numSellers),
		invSellers:  make([][]int, numBuyers),
	}
	return e.s2
}

// sellerMask returns seller i's screening mask, allocating it the first time
// the seller needs one. Every use overwrites it wholesale (Copy), so no
// clearing discipline is needed.
func (s2 *stage2State) sellerMask(i, numBuyers int) graph.Bits {
	if s2.snapMask[i] == nil {
		s2.snapMask[i] = graph.NewBits(numBuyers)
	}
	return s2.snapMask[i]
}

// conflictsWithCoalition reports whether buyer j interferes on channel i with
// any current member of µ(i) — one AND-any sweep of j's adjacency row against
// the coalition bitset, equivalent to g.ConflictsWith(j, mu.Coalition(i)).
func (e *engine) conflictsWithCoalition(i, j int, mu *matching.Matching) bool {
	return graph.AndAny(e.m.Graph(i).Row(j), mu.Members(i))
}

// runTransfer executes Stage II Phase 1 (Algorithm 2 lines 4–17), mutating mu
// in place. It returns each seller's accumulated invitation list R_i: the
// transfer applicants she rejected, in arrival order without duplicates. The
// returned slices alias the engine's pooled state and are valid until the
// next runTransfer on the same engine. The returned stats carry no welfare;
// runStageII sums it.
//
// Semantics fixed by the paper's worked example (Fig. 2): within a round all
// sellers decide against the coalition snapshot taken at the start of the
// round, then all granted transfers take effect simultaneously — seller c
// rejects buyer 5 against µ(c) = {1,2} even though buyer 2's simultaneous
// transfer to seller a is granted in the same round. Because decisions read
// only the snapshot, each seller's grants can be applied right after her
// decision, in seller-ID order.
func (e *engine) runTransfer(mu *matching.Matching) ([][]int, StageStats, error) {
	numSellers, numBuyers := e.m.M(), e.m.N()
	var stats StageStats
	s2 := e.stage2()

	// T_j is consumed through a cursor into the buyer's descending
	// preference order. Entries no better than the buyer's current utility
	// are skipped dynamically: applications go out best-first, so once one
	// is granted every remaining entry is worse than the new match.
	//
	// On the full path the order comes from the engine's own market. On the
	// incremental path it is the precomputed base-market order (nil for
	// inactive buyers): entries the effective rows zero out — offline
	// channels — fail the strict-improvement test below and are consumed
	// within the same scan, so the application sequence is identical to the
	// one an effective-market order would produce.
	for j := 0; j < numBuyers; j++ {
		if e.basePref != nil {
			s2.prefOrder[j] = e.basePref[j]
		} else {
			s2.prefOrder[j] = e.m.BuyerPrefOrder(j)
		}
		s2.next[j] = 0
	}
	prefOrder, next := s2.prefOrder, s2.next

	for i := 0; i < numSellers; i++ {
		s2.inviteLists[i] = s2.inviteLists[i][:0]
		if s2.inInvite[i] != nil {
			s2.inInvite[i].Reset()
		}
	}
	applicants := s2.applicants

	// Each buyer applies at most M times, so M rounds suffice (Prop. 2).
	maxRounds := numSellers + 2
	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, stats, fmt.Errorf("phase 1 exceeded its O(M)=%d round bound", maxRounds)
		}
		roundStart := e.roundTimer()
		roundSpan := e.startRound()

		// Application step: one application per buyer with a strictly
		// better seller left to try.
		applicationsMade := 0
		for i := range applicants {
			applicants[i] = applicants[i][:0]
		}
		for j := 0; j < numBuyers; j++ {
			cur := e.utility(mu, j)
			target := market.Unmatched
			for next[j] < len(prefOrder[j]) {
				i := prefOrder[j][next[j]]
				next[j]++
				if e.rows[i][j] > cur && i != mu.SellerOf(j) {
					target = i
					break
				}
			}
			if target == market.Unmatched {
				continue
			}
			applicants[target] = append(applicants[target], j)
			applicationsMade++
			stats.Messages++
			e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindTransferApply, Buyer: j, Seller: target})
		}
		if applicationsMade == 0 {
			break
		}
		stats.Rounds = round

		// Snapshot the coalitions of sellers with applicants before any
		// seller decides: one word-parallel copy of µ(i)'s member bitset
		// into the seller's screening mask.
		for i := 0; i < numSellers; i++ {
			if len(applicants[i]) == 0 {
				continue
			}
			s2.sellerMask(i, numBuyers).Copy(mu.Members(i))
		}

		// Decision step: each seller admits the best independent subset of
		// applicants compatible with her (unevictable) snapshot coalition,
		// and her grants and trace events are applied at once.
		for i := 0; i < numSellers; i++ {
			applied := applicants[i]
			if len(applied) == 0 {
				continue
			}
			g := e.m.Graph(i)
			mask := s2.snapMask[i]
			compat := s2.compat[i][:0]
			for _, j := range applied {
				if !g.ConflictsMask(j, mask) {
					compat = append(compat, j)
				}
			}
			s2.compat[i] = compat
			selected, err := e.coalition(i, compat)
			if err != nil {
				return nil, stats, fmt.Errorf("seller %d transfer coalition: %w", i, err)
			}
			for _, j := range selected {
				s2.granted.Set(j)
				if err := mu.Assign(i, j); err != nil {
					return nil, stats, fmt.Errorf("transferring buyer %d to seller %d: %w", j, i, err)
				}
				e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindTransferAccept, Buyer: j, Seller: i})
			}
			for _, j := range applied {
				if s2.granted.Get(j) {
					continue
				}
				e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindTransferReject, Buyer: j, Seller: i})
				if s2.inInvite[i] == nil {
					s2.inInvite[i] = graph.NewBits(numBuyers)
				}
				if !s2.inInvite[i].Get(j) {
					s2.inInvite[i].Set(j)
					s2.inviteLists[i] = append(s2.inviteLists[i], j)
				}
			}
			for _, j := range selected {
				s2.granted.Clear(j)
			}
		}
		e.observeRound(roundStart)
		e.endRound(&roundSpan, "phase_1", round, applicationsMade)
	}
	return s2.inviteLists, stats, nil
}

// runInvitation executes Stage II Phase 2 (Algorithm 2 lines 18–33), mutating
// mu in place. Each seller first screens her invitation list down to buyers
// compatible with her post-Phase-1 coalition, then each round invites her
// highest-price remaining candidate; a buyer accepts the best strictly
// improving invitation she holds. After an acceptance the seller drops the
// new member's interfering neighbors from her list (Algorithm 2 line 29).
// The returned stats carry no welfare; runStageII sums it.
func (e *engine) runInvitation(mu *matching.Matching, inviteLists [][]int) (StageStats, error) {
	numSellers, numBuyers := e.m.M(), e.m.N()
	var stats StageStats
	s2 := e.stage2()

	// Screening (Algorithm 2 lines 19–21).
	pending := s2.pending
	totalPending := 0
	for i := 0; i < numSellers; i++ {
		pending[i] = pending[i][:0]
		if i >= len(inviteLists) || len(inviteLists[i]) == 0 {
			continue
		}
		g := e.m.Graph(i)
		mask := s2.sellerMask(i, numBuyers)
		mask.Copy(mu.Members(i))
		for _, j := range inviteLists[i] {
			if mu.SellerOf(j) == i {
				continue // transferred here after the rejection
			}
			if !g.ConflictsMask(j, mask) {
				pending[i] = append(pending[i], j)
			}
		}
		// Invite in descending price order, ties toward the smaller buyer.
		row := e.rows[i]
		sort.Slice(pending[i], func(a, b int) bool {
			pa, pb := row[pending[i][a]], row[pending[i][b]]
			if pa != pb {
				return pa > pb
			}
			return pending[i][a] < pending[i][b]
		})
		totalPending += len(pending[i])
	}

	maxRounds := totalPending + 2
	for round := 1; ; round++ {
		if round > maxRounds {
			return stats, fmt.Errorf("phase 2 exceeded its %d round bound", maxRounds)
		}
		roundStart := e.roundTimer()
		roundSpan := e.startRound()

		// Invitation step: each seller invites her best remaining candidate.
		invBuyers := s2.invBuyers[:0]
		invitesMade := 0
		for i := 0; i < numSellers; i++ {
			if len(pending[i]) == 0 {
				continue
			}
			j := pending[i][0]
			pending[i] = pending[i][1:] // removed regardless of outcome (line 31)
			if len(s2.invSellers[j]) == 0 {
				invBuyers = append(invBuyers, j)
			}
			s2.invSellers[j] = append(s2.invSellers[j], i)
			invitesMade++
			stats.Messages++
			e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindInvite, Buyer: j, Seller: i})
		}
		if invitesMade == 0 {
			s2.invBuyers = invBuyers
			break
		}
		stats.Rounds = round

		// Acceptance step: each invited buyer takes the best strictly
		// improving offer that is still interference-free for her, in
		// ascending buyer order (as the map-based original sorted its keys).
		sort.Ints(invBuyers)
		for _, j := range invBuyers {
			best := market.Unmatched
			bestPrice := e.utility(mu, j)
			for _, i := range s2.invSellers[j] {
				if e.rows[i][j] <= bestPrice {
					e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindInviteDecline, Buyer: j, Seller: i})
					continue
				}
				if e.conflictsWithCoalition(i, j, mu) {
					// A buyer accepted earlier this round now interferes;
					// the paper's line-29 pruning is applied below, but a
					// same-round race is re-checked here for safety.
					e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindInviteDecline, Buyer: j, Seller: i})
					continue
				}
				best, bestPrice = i, e.rows[i][j]
			}
			if best == market.Unmatched {
				continue
			}
			if err := mu.Assign(best, j); err != nil {
				return stats, fmt.Errorf("inviting buyer %d to seller %d: %w", j, best, err)
			}
			e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindInviteAccept, Buyer: j, Seller: best})
			// Algorithm 2 line 29: drop the new member's interfering
			// neighbors from the accepting seller's list.
			g := e.m.Graph(best)
			kept := pending[best][:0]
			for _, j2 := range pending[best] {
				if !g.HasEdge(j, j2) {
					kept = append(kept, j2)
				}
			}
			pending[best] = kept
		}
		for _, j := range invBuyers {
			s2.invSellers[j] = s2.invSellers[j][:0]
		}
		s2.invBuyers = invBuyers[:0]
		e.observeRound(roundStart)
		e.endRound(&roundSpan, "phase_2", round, invitesMade)
	}
	return stats, nil
}
