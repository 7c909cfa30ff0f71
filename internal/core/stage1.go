package core

import (
	"fmt"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/trace"
)

// RunStageI executes Algorithm 1 (adapted deferred acceptance) and returns
// the resulting interference-free matching. It is exported separately so
// ablations can measure Stage I alone.
//
// Each round, every unmatched buyer with a non-empty unproposed-seller list
// proposes to her most-preferred remaining seller; every seller that received
// proposals re-forms her waiting list as the most-preferred coalition among
// the old waiting list and the new proposers — a maximum-weight independent
// set on her channel's interference graph — evicting buyers no longer
// selected. The loop ends when no proposal is made, which Prop. 1 bounds at
// O(MN) rounds.
func RunStageI(m *market.Market, opts Options) (*matching.Matching, StageStats, error) {
	return newEngine(m, opts.withDefaults()).runStageI()
}

func (e *engine) runStageI() (*matching.Matching, StageStats, error) {
	m := e.m
	numSellers, numBuyers := m.M(), m.N()
	mu := matching.New(numSellers, numBuyers)

	prefOrder := make([][]int, numBuyers)
	next := make([]int, numBuyers) // cursor into prefOrder[j]: first unproposed seller
	totalProposals := 0
	for j := 0; j < numBuyers; j++ {
		prefOrder[j] = m.BuyerPrefOrder(j)
		totalProposals += len(prefOrder[j])
	}
	waiting := make([][]int, numSellers) // L_i, always independent on G_i
	var stats StageStats

	// Prop. 1 bounds the run by the number of proposals either side can
	// generate: every non-final round consumes at least one preference-list
	// cursor entry and cursors never rewind. The count must come from the
	// *virtual* participants — after dummy expansion a multi-demand physical
	// buyer carries one proposal cursor per demanded channel, so a guard
	// derived from physical counts would trip on markets the algorithm
	// finishes legitimately. The +2 slack turns a logic bug into an error
	// instead of an endless loop.
	maxRounds := totalProposals + 2
	proposers := make([][]int, numSellers) // seller → new proposers, in buyer order
	for round := 1; ; round++ {
		if round > maxRounds {
			return nil, stats, fmt.Errorf("stage I exceeded its %d-proposal round bound", maxRounds)
		}
		roundStart := e.roundTimer()
		roundSpan := e.startRound()

		// Proposal step: one proposal per unmatched buyer with options left.
		proposalsMade := 0
		for i := range proposers {
			proposers[i] = proposers[i][:0]
		}
		for j := 0; j < numBuyers; j++ {
			if mu.IsMatched(j) || next[j] >= len(prefOrder[j]) {
				continue
			}
			i := prefOrder[j][next[j]]
			next[j]++
			proposers[i] = append(proposers[i], j)
			proposalsMade++
			stats.Messages++
			e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindPropose, Buyer: j, Seller: i})
		}
		if proposalsMade == 0 {
			break // every unmatched buyer has exhausted her list
		}
		stats.Rounds = round

		// Decision step: each seller with new proposers forms her
		// most-preferred coalition among her waiting list and the round's
		// proposers, then applies it. A decision reads only that seller's
		// own waiting list and proposers, so deciding and applying in
		// seller-ID order is the paper's synchronous round.
		for i := 0; i < numSellers; i++ {
			newProposers := proposers[i]
			if len(newProposers) == 0 {
				continue
			}
			candidates := make([]int, 0, len(waiting[i])+len(newProposers))
			candidates = append(candidates, waiting[i]...)
			candidates = append(candidates, newProposers...)
			selected, err := e.coalition(i, candidates)
			if err != nil {
				return nil, stats, fmt.Errorf("seller %d coalition: %w", i, err)
			}
			keep := make(map[int]struct{}, len(selected))
			for _, j := range selected {
				keep[j] = struct{}{}
			}
			for _, j := range waiting[i] { // evictions
				if _, ok := keep[j]; !ok {
					mu.Unassign(j)
					e.evictions++
					e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindEvict, Buyer: j, Seller: i})
				}
			}
			for _, j := range newProposers { // rejections and admissions
				if _, ok := keep[j]; !ok {
					e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindReject, Buyer: j, Seller: i})
				}
			}
			for _, j := range selected {
				if mu.SellerOf(j) != i {
					if err := mu.Assign(i, j); err != nil {
						return nil, stats, fmt.Errorf("assigning buyer %d to seller %d: %w", j, i, err)
					}
					e.opts.Recorder.Record(trace.Event{Round: round, Kind: trace.KindAccept, Buyer: j, Seller: i})
				}
			}
			waiting[i] = selected
		}
		e.observeRound(roundStart)
		e.endRound(&roundSpan, "stage_i", round, proposalsMade)
	}

	stats.Welfare = e.welfare(mu)
	return mu, stats, nil
}

// priceRows materializes the per-channel weight vectors b_{i,·} once per run.
func priceRows(m *market.Market) [][]float64 {
	rows := make([][]float64, m.M())
	for i := range rows {
		row := make([]float64, m.N())
		for j := range row {
			row[j] = m.Price(i, j)
		}
		rows[i] = row
	}
	return rows
}
