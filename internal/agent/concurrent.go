package agent

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/simnet"
	"specmatch/internal/stats"
)

// netSender is the one capability agents need from the network. The
// sequential runner hands agents the simnet.Network directly; the concurrent
// runner hands them an interceptor that re-serializes sends at the slot
// barrier.
type netSender interface {
	Send(msg simnet.Message)
}

var _ netSender = (*simnet.Network)(nil)

// RunConcurrent executes the asynchronous protocol with one goroutine per
// agent, synchronized at a per-slot barrier, instead of the sequential loop
// of Run. Agents never share state and communicate only through the
// network, so the only coordination is the barrier itself; the race
// detector validates that claim in the tests.
//
// Each agent's sends are buffered during the slot and forwarded to the
// underlying network in deterministic agent order (buyers by index, then
// sellers) at the barrier, so runs are reproducible regardless of goroutine
// scheduling. On a reliable network the result is bit-identical to Run;
// with fault injection both runners are individually deterministic but may
// consume the drop/delay randomness in different orders and so diverge from
// each other.
func RunConcurrent(m *market.Market, cfg Config) (*Result, error) {
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
	inner, err := simnet.New(netCfg)
	if err != nil {
		return nil, fmt.Errorf("agent: network: %w", err)
	}
	interceptor := &slotBuffer{}
	met := newMsgMeter(cfg.Metrics)
	sender := met.meter(interceptor)

	buyers := make([]*buyerAgent, m.N())
	for j := range buyers {
		buyers[j] = newBuyerAgent(j, m, cfg, sched, sender)
	}
	sellers := make([]*sellerAgent, m.M())
	for i := range sellers {
		sellers[i] = newSellerAgent(i, m, cfg, sched, sender)
	}

	res := &Result{}
	var (
		statsMu           sync.Mutex
		firstErr          error
		buyerTransitions  []float64
		sellerTransitions []float64
	)

	for slot := 1; slot <= cfg.MaxSlots; slot++ {
		inbox := groupByRecipient(inner.Step())
		now := inner.Now()

		var wg sync.WaitGroup
		for j := range buyers {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				b := buyers[j]
				for _, msg := range inbox[simnet.Buyer(j)] {
					met.onDeliver(msg)
					h := cfg.Flight.Start(root.Context(), "agent.handle")
					b.handle(msg)
					if h.Active() {
						h.Annotate("slot=" + strconv.Itoa(now) + " to=" + msg.To.String() + " type=" + PayloadName(msg.Payload))
					}
					h.End()
				}
				wasStageI := b.stage == 1
				b.tick(now)
				if wasStageI && b.stage == 2 {
					statsMu.Lock()
					buyerTransitions = append(buyerTransitions, float64(now))
					if now > res.LastBuyerTransition {
						res.LastBuyerTransition = now
					}
					if now < sched.stageII {
						res.EarlyBuyerTransitions++
					}
					statsMu.Unlock()
					met.onTransition(simnet.KindBuyer)
				}
			}(j)
		}
		for i := range sellers {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := sellers[i]
				for _, msg := range inbox[simnet.Seller(i)] {
					met.onDeliver(msg)
					h := cfg.Flight.Start(root.Context(), "agent.handle")
					s.handle(msg)
					if h.Active() {
						h.Annotate("slot=" + strconv.Itoa(now) + " to=" + msg.To.String() + " type=" + PayloadName(msg.Payload))
					}
					h.End()
				}
				wasStageI := s.stage == 1
				if err := s.tick(now); err != nil {
					statsMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					statsMu.Unlock()
					return
				}
				if wasStageI && s.stage == 2 {
					statsMu.Lock()
					sellerTransitions = append(sellerTransitions, float64(now))
					if now > res.LastSellerTransition {
						res.LastSellerTransition = now
					}
					if now < sched.stageII {
						res.EarlySellerTransitions++
					}
					statsMu.Unlock()
					met.onTransition(simnet.KindSeller)
				}
			}(i)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		interceptor.flushTo(inner)

		if inner.InFlight() == 0 && allQuiescent(buyers, sellers) {
			res.Slots = inner.Now()
			res.Terminated = true
			break
		}
	}
	if !res.Terminated {
		res.Slots = inner.Now()
	}

	res.MeanBuyerTransition = stats.Mean(buyerTransitions)
	res.MeanSellerTransition = stats.Mean(sellerTransitions)
	res.Matching, res.DisagreedPairs = assemble(m, buyers, sellers)
	res.Welfare = matching.Welfare(m, res.Matching)
	res.Net = inner.Stats()
	met.onDone(res.Slots)
	if root.Active() {
		root.Annotate(fmt.Sprintf("runtime=concurrent slots=%d terminated=%t matched=%d welfare=%.6g",
			res.Slots, res.Terminated, res.Matching.MatchedCount(), res.Welfare))
	}
	return res, nil
}

func allQuiescent(buyers []*buyerAgent, sellers []*sellerAgent) bool {
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

// groupByRecipient indexes a slot's deliveries by destination, preserving
// simnet's deterministic per-recipient order.
func groupByRecipient(msgs []simnet.Message) map[simnet.NodeID][]simnet.Message {
	inbox := make(map[simnet.NodeID][]simnet.Message)
	for _, msg := range msgs {
		inbox[msg.To] = append(inbox[msg.To], msg)
	}
	return inbox
}

// slotBuffer intercepts agent sends during a concurrent slot and forwards
// them at the barrier in deterministic (sender kind, sender index, FIFO)
// order. Each agent is single-goroutine within the slot, so per-sender FIFO
// reflects the agent's own send order.
type slotBuffer struct {
	mu       sync.Mutex
	bySender map[simnet.NodeID][]simnet.Message
}

// Send implements netSender.
func (sb *slotBuffer) Send(msg simnet.Message) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.bySender == nil {
		sb.bySender = make(map[simnet.NodeID][]simnet.Message)
	}
	sb.bySender[msg.From] = append(sb.bySender[msg.From], msg)
}

// flushTo forwards buffered messages to the real network in the same global
// order the sequential runner would have produced: buyers by index, then
// sellers by index, FIFO within each sender.
func (sb *slotBuffer) flushTo(net *simnet.Network) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	senders := make([]simnet.NodeID, 0, len(sb.bySender))
	for id := range sb.bySender {
		senders = append(senders, id)
	}
	sort.Slice(senders, func(a, b int) bool {
		if senders[a].Kind != senders[b].Kind {
			return senders[a].Kind < senders[b].Kind
		}
		return senders[a].Index < senders[b].Index
	})
	for _, id := range senders {
		for _, msg := range sb.bySender[id] {
			net.Send(msg)
		}
	}
	sb.bySender = nil
}
