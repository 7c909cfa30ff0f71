// Package agent implements the asynchronous realization of the two-stage
// matching protocol (§IV of the paper). Buyers and sellers run as
// independent state machines exchanging messages over a slot-synchronous
// simulated network (internal/simnet); nobody observes global state, so each
// agent decides locally when to move from Stage I (deferred acceptance) to
// Stage II (transfer, then invitation) using the paper's transition rules:
//
//   - Default rule: fixed slot schedule derived from the O(MN), O(M), O(N)
//     bounds of Props. 1–2.
//   - Buyer rule I: transit once every interfering neighbor has proposed to
//     the buyer's current seller (observed through seller digests).
//   - Buyer rule II: transit once the estimated eviction probability P^k
//     (eqs. (7)–(8), package transition) falls below a threshold.
//   - Buyer rule III: transit upon a SellerTransition notification (always
//     active, as in the paper).
//   - Seller rule: on receiving transfer applications while still in Stage
//     I, transit once the better-proposal probability Q^k (eq. (9)) falls
//     below a threshold, then notify matched buyers.
//
// One synchronous round of the paper costs two network slots here (proposal
// up, decision down), so the default schedule doubles the paper's slot
// counts. The protocol also carries timeout-driven retransmissions so it
// keeps terminating under message loss, which the paper's idealized channel
// never exercises.
package agent

import (
	"fmt"

	"specmatch/internal/mwis"
	"specmatch/internal/obs"
	"specmatch/internal/simnet"
	"specmatch/internal/trace"
	"specmatch/internal/transition"
)

// BuyerRule selects the buyers' Stage I → Stage II transition rule.
type BuyerRule int

// Buyer transition rules (§IV-A). Rule III (seller notification) is always
// active in addition to the selected rule, as in the paper.
const (
	BuyerDefault BuyerRule = iota + 1 // wait the default schedule
	BuyerRuleI                        // all interfering neighbors proposed to my seller
	BuyerRuleII                       // eviction probability below threshold
)

var _buyerRuleNames = map[BuyerRule]string{
	BuyerDefault: "default",
	BuyerRuleI:   "rule-i",
	BuyerRuleII:  "rule-ii",
}

// String implements fmt.Stringer.
func (r BuyerRule) String() string {
	if s, ok := _buyerRuleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("agent.BuyerRule(%d)", int(r))
}

// ParseBuyerRule converts a CLI-style name into a BuyerRule.
func ParseBuyerRule(s string) (BuyerRule, error) {
	for r, name := range _buyerRuleNames {
		if name == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("agent: unknown buyer rule %q (want default, rule-i or rule-ii)", s)
}

// SellerRule selects the sellers' transition rule.
type SellerRule int

// Seller transition rules (§IV-B).
const (
	SellerDefault       SellerRule = iota + 1 // wait the default schedule
	SellerProbabilistic                       // Q^k below threshold
)

var _sellerRuleNames = map[SellerRule]string{
	SellerDefault:       "default",
	SellerProbabilistic: "probabilistic",
}

// String implements fmt.Stringer.
func (r SellerRule) String() string {
	if s, ok := _sellerRuleNames[r]; ok {
		return s
	}
	return fmt.Sprintf("agent.SellerRule(%d)", int(r))
}

// ParseSellerRule converts a CLI-style name into a SellerRule.
func ParseSellerRule(s string) (SellerRule, error) {
	for r, name := range _sellerRuleNames {
		if name == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("agent: unknown seller rule %q (want default or probabilistic)", s)
}

// Config tunes an asynchronous protocol run.
type Config struct {
	// Net configures the underlying network (faults, seed).
	Net simnet.Config

	// BuyerRule and SellerRule select transition rules; zero values mean
	// the default schedule.
	BuyerRule  BuyerRule
	SellerRule SellerRule

	// BuyerThreshold is the P^k threshold for BuyerRuleII; zero means 0.05.
	BuyerThreshold float64
	// SellerThreshold is the Q^k threshold for SellerProbabilistic; zero
	// means 0.05.
	SellerThreshold float64

	// PriceCDF is the assumed price distribution F for the probabilistic
	// rules; nil means transition.Uniform01 (the paper's setting).
	PriceCDF transition.CDF

	// LearnCDF drops the common-prior assumption: each buyer estimates F
	// from the empirical distribution of her own utility vector (a
	// legitimate i.i.d. sample of F in the paper's model) instead of using
	// PriceCDF. Sellers keep PriceCDF — their rule already conditions on
	// observed interference structure via θ.
	LearnCDF bool

	// MWIS selects the sellers' coalition solver; zero means mwis.GWMIN.
	MWIS mwis.Algorithm

	// RetryAfter is the per-request retransmission timeout in slots; zero
	// derives it from the network's delay bound. Retries keep the protocol
	// live under message loss.
	RetryAfter int
	// MaxRetries bounds retransmissions per request; zero means 3.
	MaxRetries int

	// MaxSlots aborts a run that fails to terminate; zero derives a bound
	// from the default schedule with slack.
	MaxSlots int

	// Recorder, when non-nil, receives protocol events.
	Recorder *trace.Recorder

	// Metrics, when non-nil, receives agent-layer instrumentation: per-type
	// sent/delivered message counts (agent.sent.<type> and
	// agent.delivered.<type>, one pair per protocol message), Stage II
	// transition counts, and the agent.slots convergence gauge. Counters are
	// cumulative across runs sharing the registry. Metric names are
	// catalogued in PROTOCOL.md. Nil disables instrumentation at near-zero
	// cost and never changes protocol behavior.
	Metrics *obs.Registry

	// Flight, when non-nil, receives causal spans: agent.run as the run's
	// root, one agent.handle per delivered protocol message, and simnet.slot
	// per network slot (propagated into Net). Nil disables tracing.
	Flight *trace.Flight

	// SpanParent parents the run's root span; zero starts a fresh trace.
	SpanParent trace.SpanContext
}

func (c Config) withDefaults(numSellers, numBuyers int) Config {
	if c.BuyerRule == 0 {
		c.BuyerRule = BuyerDefault
	}
	if c.SellerRule == 0 {
		c.SellerRule = SellerDefault
	}
	if c.BuyerThreshold == 0 {
		c.BuyerThreshold = 0.05
	}
	if c.SellerThreshold == 0 {
		c.SellerThreshold = 0.05
	}
	if c.PriceCDF == nil {
		c.PriceCDF = transition.Uniform01{}
	}
	if c.MWIS == 0 {
		c.MWIS = mwis.GWMIN
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = 2*c.Net.DelayMax + 4
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxSlots == 0 {
		sched := defaultSchedule(numSellers, numBuyers)
		c.MaxSlots = sched.end + 40*(c.Net.DelayMax+1) + 200
	}
	return c
}

// schedule holds the slot-based default transition schedule: the paper's
// MN / M / N waits, doubled because one algorithm round spans two slots
// (request up, decision down).
type schedule struct {
	stageII int // first slot of Stage II Phase 1
	phase2  int // first slot of Stage II Phase 2
	end     int // default termination slot
}

func defaultSchedule(numSellers, numBuyers int) schedule {
	d := transition.DefaultRule{M: numSellers, N: numBuyers}
	return schedule{
		stageII: 2 * d.StageIISlot(),
		phase2:  2 * d.Phase2Slot(),
		end:     2 * d.EndSlot(),
	}
}
