// Package specmatch is a Go implementation of Spectrum Matching (Chen,
// Jiang, Cai, Zhang, Li — IEEE ICDCS 2016): a distributed, matching-based
// alternative to double auctions for dynamic spectrum access in free
// spectrum markets.
//
// The library models a spectrum market of sellers (channels) and buyers with
// per-channel interference graphs, and offers three solvers over it:
//
//   - Match — the paper's contribution: a two-stage distributed algorithm
//     (adapted deferred acceptance, then transfer & invitation) that
//     converges in O(MN) rounds to an interference-free, individually
//     rational, Nash-stable matching.
//   - Optimal — the centralized welfare-maximizing benchmark (exact
//     branch-and-bound over the paper's NP-hard integer program).
//   - MatchAsync — the fully asynchronous protocol of §IV, where every buyer
//     and seller decides locally when to move between stages, running over a
//     simulated lossy network.
//
// Quick start:
//
//	m, err := specmatch.GenerateMarket(specmatch.MarketConfig{Sellers: 5, Buyers: 40, Seed: 1})
//	if err != nil { ... }
//	res, err := specmatch.Match(m, specmatch.MatchOptions{})
//	if err != nil { ... }
//	fmt.Println(res.Welfare, specmatch.CheckStability(m, res.Matching))
//
// The subpackages under internal implement the substrates (interference
// graphs, greedy MWIS, market generation, the slot-synchronous network, the
// evaluation harness); this package re-exports the stable public surface.
package specmatch

import (
	"specmatch/internal/agent"
	"specmatch/internal/auction"
	"specmatch/internal/core"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/mwis"
	"specmatch/internal/online"
	"specmatch/internal/optimal"
	"specmatch/internal/outage"
	"specmatch/internal/simnet"
	"specmatch/internal/stability"
	"specmatch/internal/swap"
)

// Market is a fully expanded spectrum market: M virtual sellers (channels),
// N virtual buyers, per-channel prices and interference graphs.
type Market = market.Market

// MarketConfig describes a randomly generated market in the paper's
// evaluation setup (§V-A).
type MarketConfig = market.Config

// SimilarityConfig controls buyer price similarity (average pairwise SRCC).
type SimilarityConfig = market.SimilarityConfig

// RadioConfig selects the SINR-style physical-layer interference model for
// market generation (Δ = 0 dB coincides with the paper's disk rule).
type RadioConfig = market.RadioConfig

// HotspotConfig clusters buyers around hotspot centers instead of the
// paper's uniform placement.
type HotspotConfig = market.HotspotConfig

// MarketSpec is the JSON interchange form of a market.
type MarketSpec = market.Spec

// Matching is the matching function µ of Definition 1.
type Matching = matching.Matching

// MatchOptions configures the synchronous two-stage algorithm, including
// the engine's performance knob DisableCoalitionCache, which solves every
// coalition instead of skipping pairwise interference-free candidate sets.
// Output is bit-identical either way.
// Workers is ignored: the engine is sequential.
type MatchOptions = core.Options

// MatchResult is the outcome of the two-stage algorithm, including
// per-stage welfare and round counts, and the coalition-decision counters
// in Cache.
type MatchResult = core.Result

// AsyncConfig configures the asynchronous protocol (§IV): network faults
// and the local stage-transition rules.
type AsyncConfig = agent.Config

// NetConfig tunes the simulated network of the asynchronous protocol:
// message-drop probability, bounded extra delay, and blackout windows.
type NetConfig = simnet.Config

// Blackout is a window of slots during which every sent message is lost.
type Blackout = simnet.Blackout

// AsyncResult is the outcome of an asynchronous run.
type AsyncResult = agent.Result

// StabilityReport summarizes interference-freeness, individual rationality,
// Nash stability and pairwise stability of a matching.
type StabilityReport = stability.Report

// MWISAlgorithm selects the sellers' coalition (maximum-weight independent
// set) solver.
type MWISAlgorithm = mwis.Algorithm

// MWIS algorithm choices. GWMIN is the paper's linear-time greedy default.
const (
	GWMIN      = mwis.GWMIN
	GWMIN2     = mwis.GWMIN2
	GWMAX      = mwis.GWMAX
	GreedyBest = mwis.GreedyBest
	ExactMWIS  = mwis.Exact
)

// Unmatched is the sentinel seller index of an unmatched buyer.
const Unmatched = market.Unmatched

// Buyer transition rules for the asynchronous protocol (§IV-A).
const (
	BuyerDefault = agent.BuyerDefault
	BuyerRuleI   = agent.BuyerRuleI
	BuyerRuleII  = agent.BuyerRuleII
)

// Seller transition rules for the asynchronous protocol (§IV-B).
const (
	SellerDefault       = agent.SellerDefault
	SellerProbabilistic = agent.SellerProbabilistic
)

// GenerateMarket builds a random market: buyers uniform in a square area,
// one disk-model interference graph per channel, i.i.d. U[0,1] utilities
// with optional similarity control. Generation is deterministic in the
// config (including its Seed).
func GenerateMarket(cfg MarketConfig) (*Market, error) {
	return market.Generate(cfg)
}

// NewMarket builds a market from explicit prices (prices[i][j] = b_{i,j})
// and per-channel interference edge lists.
func NewMarket(spec MarketSpec) (*Market, error) {
	return market.FromSpec(spec)
}

// Match runs the paper's two-stage distributed algorithm synchronously and
// returns the final matching with per-stage statistics.
func Match(m *Market, opts MatchOptions) (*MatchResult, error) {
	return core.Run(m, opts)
}

// MatchStageI runs only Stage I (adapted deferred acceptance), for
// ablations and diagnostics.
func MatchStageI(m *Market, opts MatchOptions) (*Matching, core.StageStats, error) {
	return core.RunStageI(m, opts)
}

// MatchAsync runs the asynchronous protocol of §IV over a simulated network
// with the configured local transition rules and fault injection.
func MatchAsync(m *Market, cfg AsyncConfig) (*AsyncResult, error) {
	return agent.Run(m, cfg)
}

// Optimal returns a welfare-maximizing matching and its welfare — the
// centralized benchmark of §II-B. Exact and exponential in the worst case;
// intended for small markets (it rejects oversize searches with an error).
func Optimal(m *Market) (*Matching, float64, error) {
	return optimal.Solve(m, optimal.Options{})
}

// GreedyBaseline returns the classic centralized greedy matching, a
// linear-time comparator.
func GreedyBaseline(m *Market) (*Matching, float64) {
	return optimal.Greedy(m)
}

// Welfare returns the social welfare of a matching on a market: the sum of
// matched buyers' peer-effect utilities.
func Welfare(m *Market, mu *Matching) float64 {
	return matching.Welfare(m, mu)
}

// NewMatching returns an empty matching for a market with m sellers and n
// buyers, for building allocations by hand (baselines, tests, what-ifs).
func NewMatching(m, n int) *Matching {
	return matching.New(m, n)
}

// CheckStability verifies every §III property of a matching and reports the
// violations it finds.
func CheckStability(m *Market, mu *Matching) StabilityReport {
	return stability.Check(m, mu)
}

// SwapOptions tunes the coordinated-exchange stage.
type SwapOptions = swap.Options

// SwapStats reports what the coordinated-exchange stage did.
type SwapStats = swap.Stats

// DynamicSession is a long-running matching over a market with arrivals and
// departures, repaired incrementally after each churn event so incumbents
// are never disrupted.
type DynamicSession = online.Session

// ChurnEvent is one batch of arrivals and departures.
type ChurnEvent = online.Event

// ChurnStats reports one dynamic-session step.
type ChurnStats = online.StepStats

// NewDynamicSession starts a dynamic matching session on the market with no
// active buyers. Feed churn with Session.Step; each step restores the
// paper's stability guarantees over the active sub-market via Stage II
// repair (see core.Repair).
func NewDynamicSession(m *Market, opts MatchOptions) (*DynamicSession, error) {
	return online.NewSession(m, opts)
}

// LinkParams configures the physical-layer audit.
type LinkParams = outage.LinkParams

// OutageReport summarizes a physical-layer audit.
type OutageReport = outage.OutageReport

// AuditPhysical evaluates a matching under aggregate co-channel
// interference (log-distance path loss) and reports the links that would
// actually fail — the protocol-model vs physical-model gap. Requires a
// market with geometry (generated, not hand-built).
func AuditPhysical(m *Market, mu *Matching, params LinkParams) (OutageReport, error) {
	return outage.ValidateMatching(m, mu, params)
}

// AuctionOptions tunes the double-auction baseline.
type AuctionOptions = auction.Options

// AuctionOutcome reports the double-auction baseline's result.
type AuctionOutcome = auction.Outcome

// DoubleAuction runs the TRUST-style group-based truthful double auction —
// the centralized mechanism family the paper replaces — on the same market
// model, as a welfare baseline.
func DoubleAuction(m *Market, opts AuctionOptions) (*Matching, AuctionOutcome, error) {
	return auction.Run(m, opts)
}

// ImproveSwaps applies the coordinated-exchange stage this library adds on
// top of the paper (its §III-D names the mechanism as future work): buyers
// relocate to strictly better compatible channels and exchange places in
// pairs whenever both buyers strictly gain and both sellers weakly gain.
// The matching is modified in place; welfare never decreases, no buyer ends
// worse off, and the result stays Nash-stable. On the paper's Fig. 4/5
// counterexample this recovers exactly the published better matching.
func ImproveSwaps(m *Market, mu *Matching, opts SwapOptions) (SwapStats, error) {
	return swap.Improve(m, mu, opts)
}
