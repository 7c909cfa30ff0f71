package specmatch_test

import (
	"testing"

	"specmatch"
)

// TestPublicAPIEndToEnd drives the whole public surface the way the README
// quick start does.
func TestPublicAPIEndToEnd(t *testing.T) {
	m, err := specmatch.GenerateMarket(specmatch.MarketConfig{Sellers: 4, Buyers: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	res, err := specmatch.Match(m, specmatch.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare <= 0 {
		t.Errorf("welfare = %v, want positive", res.Welfare)
	}
	if got := specmatch.Welfare(m, res.Matching); got != res.Welfare {
		t.Errorf("Welfare() = %v, result says %v", got, res.Welfare)
	}

	rep := specmatch.CheckStability(m, res.Matching)
	if !rep.InterferenceFree || !rep.IndividuallyRational || !rep.NashStable {
		t.Errorf("stability report: %v", rep)
	}

	_, opt, err := specmatch.Optimal(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Welfare > opt+1e-9 {
		t.Errorf("distributed welfare %v exceeds optimal %v", res.Welfare, opt)
	}
	if _, g := specmatch.GreedyBaseline(m); g > opt+1e-9 {
		t.Errorf("greedy welfare %v exceeds optimal %v", g, opt)
	}

	async, err := specmatch.MatchAsync(m, specmatch.AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !async.Matching.Equal(res.Matching) {
		t.Error("async default run should equal the synchronous result")
	}

	mu1, stats, err := specmatch.MatchStageI(m, specmatch.MatchOptions{MWIS: specmatch.ExactMWIS})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Welfare != specmatch.Welfare(m, mu1) {
		t.Error("stage I stats disagree with matching welfare")
	}
}

// TestNewMarketFromSpec exercises the explicit constructor.
func TestNewMarketFromSpec(t *testing.T) {
	m, err := specmatch.NewMarket(specmatch.MarketSpec{
		Prices: [][]float64{{1, 2}, {3, 4}},
		Edges:  [][][2]int{{{0, 1}}, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.M() != 2 || m.N() != 2 {
		t.Errorf("dims (%d,%d), want (2,2)", m.M(), m.N())
	}
	res, err := specmatch.Match(m, specmatch.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Channel 1 has no interference: both buyers take it (3 + 4).
	if res.Welfare != 7 {
		t.Errorf("welfare = %v, want 7", res.Welfare)
	}
}

// TestExtensionsPublicAPI drives the extension entry points: the swap
// stage, the double-auction baseline, and the dynamic session.
func TestExtensionsPublicAPI(t *testing.T) {
	m, err := specmatch.GenerateMarket(specmatch.MarketConfig{Sellers: 4, Buyers: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	res, err := specmatch.Match(m, specmatch.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := specmatch.ImproveSwaps(m, res.Matching, specmatch.SwapOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalWelfare < res.StageI.Welfare {
		t.Error("swap stage lost welfare")
	}

	_, outcome, err := specmatch.DoubleAuction(m, specmatch.AuctionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome.Welfare <= 0 || outcome.Welfare > st.FinalWelfare {
		t.Errorf("auction welfare %v should be positive and below matching %v", outcome.Welfare, st.FinalWelfare)
	}
	if outcome.AuctioneerSurplus < 0 {
		t.Errorf("auctioneer deficit %v", outcome.AuctioneerSurplus)
	}

	session, err := specmatch.NewDynamicSession(m, specmatch.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Step(specmatch.ChurnEvent{Arrive: []int{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if session.ActiveCount() != 4 {
		t.Errorf("active %d, want 4", session.ActiveCount())
	}
	if _, err := session.Step(specmatch.ChurnEvent{ChannelDown: []int{0}}); err != nil {
		t.Fatal(err)
	}
	if session.ChannelOnline(0) {
		t.Error("channel 0 should be offline")
	}
}
