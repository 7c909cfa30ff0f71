package agent

import (
	"fmt"
	"strconv"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/simnet"
	"specmatch/internal/stats"
)

// Result is the outcome of an asynchronous protocol run.
type Result struct {
	// Matching is the realized assignment: buyer j is matched to seller i
	// iff seller i lists j AND buyer j believes she holds channel i. Under a
	// reliable network the two views always agree; under message loss a
	// stale view on either side voids the pairing, which is exactly what
	// would happen over the air.
	Matching *matching.Matching

	// Welfare is the social welfare of Matching.
	Welfare float64

	// Slots is the number of network slots until quiescence (the
	// paper's "running time" unit for §IV; one algorithm round = 2 slots).
	Slots int

	// Terminated is false when the run hit MaxSlots before quiescing.
	Terminated bool

	// LastBuyerTransition and LastSellerTransition are the latest slots at
	// which some buyer / seller entered Stage II — the realized cost of the
	// transition rules compared to the default schedule.
	LastBuyerTransition  int
	LastSellerTransition int

	// MeanBuyerTransition and MeanSellerTransition average the Stage II
	// entry slots across agents. Under the probabilistic rules most agents
	// transition long before the default schedule even when a few stragglers
	// ride the fallback, so the mean — not the max — shows the rules' value.
	MeanBuyerTransition  float64
	MeanSellerTransition float64

	// EarlyBuyerTransitions and EarlySellerTransitions count agents that
	// entered Stage II before the default-schedule slot.
	EarlyBuyerTransitions  int
	EarlySellerTransitions int

	// Net reports message-level statistics including drops.
	Net simnet.Stats

	// DisagreedPairs counts (seller lists j, buyer disagrees) pairs voided
	// when assembling Matching; always 0 on a reliable network.
	DisagreedPairs int
}

// netSender is the one capability agents need from the network. Run hands
// agents the simnet.Network directly; BuyerNode and SellerNode hand them a
// buffer the caller drains onto its own transport.
type netSender interface {
	Send(msg simnet.Message)
}

var _ netSender = (*simnet.Network)(nil)

// Run executes the asynchronous two-stage protocol on the market and returns
// the realized matching.
func Run(m *market.Market, cfg Config) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("agent: invalid market: %w", err)
	}
	cfg = cfg.withDefaults(m.M(), m.N())
	sched := defaultSchedule(m.M(), m.N())

	root := cfg.Flight.Start(cfg.SpanParent, "agent.run")
	defer root.End()
	netCfg := cfg.Net
	netCfg.Flight = cfg.Flight
	netCfg.SpanParent = root.Context()
	net, err := simnet.New(netCfg)
	if err != nil {
		return nil, fmt.Errorf("agent: network: %w", err)
	}
	met := newMsgMeter(cfg.Metrics)
	sender := met.meter(net)

	buyers := make([]*buyerAgent, m.N())
	for j := range buyers {
		buyers[j] = newBuyerAgent(j, m, cfg, sched, sender)
	}
	sellers := make([]*sellerAgent, m.M())
	for i := range sellers {
		sellers[i] = newSellerAgent(i, m, cfg, sched, sender)
	}

	res := &Result{Terminated: false}
	buyerTransitions := make([]float64, 0, m.N())
	sellerTransitions := make([]float64, 0, m.M())
	for slot := 1; slot <= cfg.MaxSlots; slot++ {
		for _, msg := range net.Step() {
			met.onDeliver(msg)
			h := cfg.Flight.Start(root.Context(), "agent.handle")
			switch msg.To.Kind {
			case simnet.KindBuyer:
				buyers[msg.To.Index].handle(msg)
			case simnet.KindSeller:
				sellers[msg.To.Index].handle(msg)
			}
			if h.Active() {
				h.Annotate("slot=" + strconv.Itoa(net.Now()) + " to=" + msg.To.String() + " type=" + PayloadName(msg.Payload))
			}
			h.End()
		}
		for _, b := range buyers {
			wasStageI := b.stage == 1
			b.tick(net.Now())
			if wasStageI && b.stage == 2 {
				res.LastBuyerTransition = net.Now()
				buyerTransitions = append(buyerTransitions, float64(net.Now()))
				if net.Now() < sched.stageII {
					res.EarlyBuyerTransitions++
				}
				met.onTransition(simnet.KindBuyer)
			}
		}
		for _, s := range sellers {
			wasStageI := s.stage == 1
			if err := s.tick(net.Now()); err != nil {
				return nil, err
			}
			if wasStageI && s.stage == 2 {
				res.LastSellerTransition = net.Now()
				sellerTransitions = append(sellerTransitions, float64(net.Now()))
				if net.Now() < sched.stageII {
					res.EarlySellerTransitions++
				}
				met.onTransition(simnet.KindSeller)
			}
		}
		if quiesced(buyers, sellers, net) {
			res.Slots = net.Now()
			res.Terminated = true
			break
		}
	}
	if !res.Terminated {
		res.Slots = net.Now()
	}
	res.MeanBuyerTransition = stats.Mean(buyerTransitions)
	res.MeanSellerTransition = stats.Mean(sellerTransitions)

	res.Matching, res.DisagreedPairs = assemble(m, buyers, sellers)
	res.Welfare = matching.Welfare(m, res.Matching)
	res.Net = net.Stats()
	met.onDone(res.Slots)
	if root.Active() {
		root.Annotate(fmt.Sprintf("runtime=sequential slots=%d terminated=%t matched=%d welfare=%.6g",
			res.Slots, res.Terminated, res.Matching.MatchedCount(), res.Welfare))
	}
	return res, nil
}

// quiesced reports global termination: every seller finished her invitation
// list, every buyer has no pending work, and no message is in flight.
func quiesced(buyers []*buyerAgent, sellers []*sellerAgent, net *simnet.Network) bool {
	if net.InFlight() > 0 {
		return false
	}
	for _, s := range sellers {
		if !s.quiescent() {
			return false
		}
	}
	for _, b := range buyers {
		if !b.idle() {
			return false
		}
	}
	return true
}

// assemble reconciles seller and buyer views into the realized matching.
func assemble(m *market.Market, buyers []*buyerAgent, sellers []*sellerAgent) (*matching.Matching, int) {
	mu := matching.New(m.M(), m.N())
	disagreed := 0
	for i, s := range sellers {
		for _, j := range s.coalitionMembers() {
			if buyers[j].matchedTo == i {
				// In-range by construction; Assign cannot fail.
				_ = mu.Assign(i, j)
			} else {
				disagreed++
			}
		}
	}
	return mu, disagreed
}
