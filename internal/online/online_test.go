package online

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/stability"
	"specmatch/internal/xrand"
)

func newSession(t *testing.T, sellers, buyers int, seed int64) (*Session, *market.Market) {
	t.Helper()
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// checkInvariants asserts the session's §III guarantees over the active
// sub-market.
func checkInvariants(t *testing.T, s *Session) {
	t.Helper()
	em := s.effectiveMarket()
	rep := stability.Check(em, s.Matching())
	if !rep.InterferenceFree {
		t.Fatalf("interference: %v", rep.Interference)
	}
	if !rep.IndividuallyRational {
		t.Fatalf("IR violations: %v", rep.IR)
	}
	if !rep.NashStable {
		t.Fatalf("Nash deviations: %v", rep.Nash)
	}
	if err := s.Matching().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySession(t *testing.T) {
	s, _ := newSession(t, 3, 10, 1)
	if s.ActiveCount() != 0 || s.Welfare() != 0 {
		t.Error("fresh session should be empty")
	}
	st, err := s.Step(Event{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Welfare != 0 || st.Matched != 0 {
		t.Errorf("empty step: %+v", st)
	}
}

func TestArrivalsMatchEveryone(t *testing.T) {
	s, m := newSession(t, 4, 12, 2)
	all := make([]int, m.N())
	for j := range all {
		all[j] = j
	}
	st, err := s.Step(Event{Arrive: all})
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrived != m.N() {
		t.Errorf("arrived %d, want %d", st.Arrived, m.N())
	}
	if st.Welfare <= 0 {
		t.Error("welfare should be positive after everyone arrives")
	}
	checkInvariants(t, s)
}

func TestDepartureReleasesChannel(t *testing.T) {
	s, m := newSession(t, 3, 8, 3)
	all := make([]int, m.N())
	for j := range all {
		all[j] = j
	}
	if _, err := s.Step(Event{Arrive: all}); err != nil {
		t.Fatal(err)
	}
	// Depart a matched buyer.
	var victim int = -1
	for j := 0; j < m.N(); j++ {
		if s.Matching().IsMatched(j) {
			victim = j
			break
		}
	}
	if victim == -1 {
		t.Fatal("nobody matched")
	}
	st, err := s.Step(Event{Depart: []int{victim}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Departed != 1 {
		t.Errorf("departed %d, want 1", st.Departed)
	}
	if s.Matching().IsMatched(victim) || s.Active(victim) {
		t.Error("departed buyer still present")
	}
	checkInvariants(t, s)
}

func TestDuplicateEventsIdempotent(t *testing.T) {
	s, _ := newSession(t, 3, 6, 4)
	if _, err := s.Step(Event{Arrive: []int{0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if s.ActiveCount() != 2 {
		t.Errorf("active %d, want 2", s.ActiveCount())
	}
	st, err := s.Step(Event{Depart: []int{0, 0}, Arrive: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Departed != 1 || st.Arrived != 0 {
		t.Errorf("stats %+v, want 1 departure, 0 arrivals", st)
	}
}

func TestEventValidation(t *testing.T) {
	s, _ := newSession(t, 3, 6, 5)
	if _, err := s.Step(Event{Arrive: []int{99}}); err == nil {
		t.Error("out-of-range arrival should fail")
	}
	if _, err := s.Step(Event{Depart: []int{-1}}); err == nil {
		t.Error("out-of-range departure should fail")
	}
}

// TestChurnMaintainsStability runs a long random churn trace and checks the
// §III invariants after every event.
func TestChurnMaintainsStability(t *testing.T) {
	s, m := newSession(t, 5, 30, 6)
	r := xrand.New(77)
	for step := 0; step < 60; step++ {
		var ev Event
		for j := 0; j < m.N(); j++ {
			if s.Active(j) {
				if r.Float64() < 0.15 {
					ev.Depart = append(ev.Depart, j)
				}
			} else if r.Float64() < 0.3 {
				ev.Arrive = append(ev.Arrive, j)
			}
		}
		if _, err := s.Step(ev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkInvariants(t, s)
	}
}

// TestIncumbentsNeverEvicted: an arrival never costs an incumbent her
// channel (the design's service-continuity property).
func TestIncumbentsNeverEvicted(t *testing.T) {
	s, m := newSession(t, 4, 20, 7)
	half := make([]int, 0, m.N()/2)
	for j := 0; j < m.N()/2; j++ {
		half = append(half, j)
	}
	if _, err := s.Step(Event{Arrive: half}); err != nil {
		t.Fatal(err)
	}
	em := s.effectiveMarket()
	before := make(map[int]float64)
	for _, j := range half {
		before[j] = matching.BuyerUtilityIn(em, s.Matching(), j)
	}
	rest := make([]int, 0, m.N()-len(half))
	for j := m.N() / 2; j < m.N(); j++ {
		rest = append(rest, j)
	}
	if _, err := s.Step(Event{Arrive: rest}); err != nil {
		t.Fatal(err)
	}
	em = s.effectiveMarket()
	for _, j := range half {
		if after := matching.BuyerUtilityIn(em, s.Matching(), j); after < before[j]-1e-12 {
			t.Errorf("incumbent %d utility dropped %v → %v on arrivals", j, before[j], after)
		}
	}
}

// TestRebuildAtLeastAsGood: the fresh two-stage run over the active
// sub-market is a (weak) upper reference for the drifted incremental state
// in aggregate across churn traces. Individual instants can go either way
// (both algorithms are heuristics), so compare summed welfare.
func TestRebuildReference(t *testing.T) {
	s, m := newSession(t, 5, 25, 8)
	r := xrand.New(5)
	var incSum, freshSum float64
	for step := 0; step < 25; step++ {
		var ev Event
		for j := 0; j < m.N(); j++ {
			if s.Active(j) {
				if r.Float64() < 0.2 {
					ev.Depart = append(ev.Depart, j)
				}
			} else if r.Float64() < 0.35 {
				ev.Arrive = append(ev.Arrive, j)
			}
		}
		st, err := s.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.Rebuild(false)
		if err != nil {
			t.Fatal(err)
		}
		incSum += st.Welfare
		freshSum += fresh
	}
	if incSum > freshSum*1.02 {
		t.Errorf("incremental welfare %.3f implausibly above fresh %.3f", incSum, freshSum)
	}
	if incSum < freshSum*0.8 {
		t.Errorf("incremental welfare %.3f drifted more than 20%% below fresh %.3f", incSum, freshSum)
	}
	t.Logf("incremental %.2f vs fresh %.2f (ratio %.3f)", incSum, freshSum, incSum/freshSum)
}

// TestRebuildAdopt replaces the session state.
func TestRebuildAdopt(t *testing.T) {
	s, m := newSession(t, 4, 16, 9)
	all := make([]int, m.N())
	for j := range all {
		all[j] = j
	}
	if _, err := s.Step(Event{Arrive: all}); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Rebuild(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Welfare(); got != fresh {
		t.Errorf("adopted welfare %v != rebuild welfare %v", got, fresh)
	}
	checkInvariants(t, s)
}

// TestChannelReclaim: a seller taking her channel back displaces its
// coalition; repair re-seats whoever fits elsewhere, and the channel
// returning re-opens it.
func TestChannelReclaim(t *testing.T) {
	s, m := newSession(t, 3, 12, 10)
	all := make([]int, m.N())
	for j := range all {
		all[j] = j
	}
	if _, err := s.Step(Event{Arrive: all}); err != nil {
		t.Fatal(err)
	}
	before := s.Matching().Coalition(0)
	if len(before) == 0 {
		t.Skip("channel 0 empty on this seed")
	}
	st, err := s.Step(Event{ChannelDown: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChannelsDown != 1 || st.Displaced != len(before) {
		t.Errorf("stats %+v, want 1 channel down and %d displaced", st, len(before))
	}
	if s.Matching().CoalitionSize(0) != 0 {
		t.Error("reclaimed channel still has occupants")
	}
	if s.ChannelOnline(0) {
		t.Error("channel 0 should be offline")
	}
	checkInvariants(t, s)

	st, err = s.Step(Event{ChannelUp: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChannelsUp != 1 {
		t.Errorf("stats %+v, want 1 channel up", st)
	}
	checkInvariants(t, s)
	// With the channel back and repair done, somebody profitable should
	// reoccupy it whenever anyone values it most among her options; at
	// minimum the matching stays valid and Nash-stable (checked above).
}

// TestChannelChurnTrace: mixed buyer and channel churn keeps every
// invariant.
func TestChannelChurnTrace(t *testing.T) {
	s, m := newSession(t, 4, 20, 11)
	r := xrand.New(13)
	for step := 0; step < 40; step++ {
		var ev Event
		for j := 0; j < m.N(); j++ {
			if s.Active(j) {
				if r.Float64() < 0.1 {
					ev.Depart = append(ev.Depart, j)
				}
			} else if r.Float64() < 0.3 {
				ev.Arrive = append(ev.Arrive, j)
			}
		}
		for i := 0; i < m.M(); i++ {
			if s.ChannelOnline(i) {
				if r.Float64() < 0.08 {
					ev.ChannelDown = append(ev.ChannelDown, i)
				}
			} else if r.Float64() < 0.4 {
				ev.ChannelUp = append(ev.ChannelUp, i)
			}
		}
		if _, err := s.Step(ev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		checkInvariants(t, s)
		// Nobody may occupy an offline channel.
		for i := 0; i < m.M(); i++ {
			if !s.ChannelOnline(i) && s.Matching().CoalitionSize(i) != 0 {
				t.Fatalf("step %d: offline channel %d occupied", step, i)
			}
		}
	}
}

// TestChannelEventValidation rejects out-of-range channels.
func TestChannelEventValidation(t *testing.T) {
	s, _ := newSession(t, 3, 6, 12)
	if _, err := s.Step(Event{ChannelDown: []int{9}}); err == nil {
		t.Error("out-of-range channel down should fail")
	}
	if _, err := s.Step(Event{ChannelUp: []int{-1}}); err == nil {
		t.Error("out-of-range channel up should fail")
	}
}

// checkServiceInvariants asserts the guarantees that hold after *every*
// repair from an arbitrary churn state: interference-freeness, individual
// rationality, and structural validity. Nash stability is deliberately not
// asserted here — Phase 1's per-buyer preference cursor never rewinds, so a
// buyer rejected by a coalition that later shrinks (e.g. after a channel
// comes back online and reshuffles demand) can be left with a profitable
// unilateral move. A fresh two-stage run (Rebuild) restores it; the
// seeded traces in TestChurnMaintainsStability still pin the common case
// where repair does too.
func checkServiceInvariants(t *testing.T, s *Session) {
	t.Helper()
	em := s.effectiveMarket()
	rep := stability.Check(em, s.Matching())
	if !rep.InterferenceFree {
		t.Fatalf("interference: %v", rep.Interference)
	}
	if !rep.IndividuallyRational {
		t.Fatalf("IR violations: %v", rep.IR)
	}
	if err := s.Matching().Validate(); err != nil {
		t.Fatal(err)
	}
}

// randomChurn draws one mixed buyer/channel churn event against the
// session's current state. Mobility rides along on every trace: random
// waypoints over the deployment area, an occasional same-point move (a
// position report that changes nothing), and moves of inactive buyers whose
// interference rows must still rewire.
func randomChurn(s *Session, m *market.Market, r *rand.Rand) Event {
	var ev Event
	for j := 0; j < m.N(); j++ {
		if s.Active(j) {
			if r.Float64() < 0.12 {
				ev.Depart = append(ev.Depart, j)
			}
		} else if r.Float64() < 0.3 {
			ev.Arrive = append(ev.Arrive, j)
		}
	}
	for i := 0; i < m.M(); i++ {
		if s.ChannelOnline(i) {
			if r.Float64() < 0.06 {
				ev.ChannelDown = append(ev.ChannelDown, i)
			}
		} else if r.Float64() < 0.4 {
			ev.ChannelUp = append(ev.ChannelUp, i)
		}
	}
	for j := 0; j < m.N(); j++ {
		if r.Float64() >= 0.08 {
			continue
		}
		to := geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		if r.Float64() < 0.15 {
			to, _ = s.Market().BuyerPos(j)
		}
		ev.Move = append(ev.Move, BuyerMove{Buyer: j, To: to})
	}
	return ev
}

// TestLongRunChurnInvariants is the serving-path endurance test: hundreds
// of randomized churn steps per seed, interference-freeness and individual
// rationality asserted after every single Step, with periodic adopting
// rebuilds interleaved the way a deployed specserved session would see
// them.
func TestLongRunChurnInvariants(t *testing.T) {
	steps := 150
	if testing.Short() {
		steps = 40
	}
	for _, seed := range []int64{21, 22, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			s, m := newSession(t, 5, 28, seed)
			r := xrand.New(seed * 1000)
			applied := 0
			for step := 0; step < steps; step++ {
				ev := randomChurn(s, m, r)
				if _, err := s.Step(ev); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				applied++
				checkServiceInvariants(t, s)
				if step%25 == 24 {
					if _, err := s.Rebuild(true); err != nil {
						t.Fatalf("rebuild at step %d: %v", step, err)
					}
					checkServiceInvariants(t, s)
				}
			}
			if s.Steps() != applied {
				t.Errorf("Steps() = %d, want %d", s.Steps(), applied)
			}
		})
	}
}

// TestRebuildAdoptNeverLowersWelfare: across a drifting churn trace, an
// adopting rebuild must never report (or leave behind) lower welfare than
// the incremental state it considered replacing — the monotonicity that
// makes scheduled rebuilds safe to run against live sessions.
func TestRebuildAdoptNeverLowersWelfare(t *testing.T) {
	for _, seed := range []int64{31, 32, 33, 34} {
		s, m := newSession(t, 5, 24, seed)
		r := xrand.New(seed)
		for step := 0; step < 30; step++ {
			if _, err := s.Step(randomChurn(s, m, r)); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			before := s.Welfare()
			got, err := s.Rebuild(true)
			if err != nil {
				t.Fatalf("seed %d step %d: rebuild: %v", seed, step, err)
			}
			if got < before-1e-9 {
				t.Fatalf("seed %d step %d: adopting rebuild reported %.6f < incremental %.6f",
					seed, step, got, before)
			}
			if after := s.Welfare(); math.Abs(after-got) > 1e-9 {
				t.Fatalf("seed %d step %d: session welfare %.6f != reported %.6f",
					seed, step, after, got)
			}
			checkServiceInvariants(t, s)
		}
	}
}

// TestFailedStepLeavesSessionUntouched: Step validates the whole event
// before mutating, so a batch with one bad index applies none of its valid
// churn.
func TestFailedStepLeavesSessionUntouched(t *testing.T) {
	s, m := newSession(t, 4, 12, 13)
	all := make([]int, m.N())
	for j := range all {
		all[j] = j
	}
	if _, err := s.Step(Event{Arrive: all}); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	bad := Event{
		Depart:      []int{0, 1},
		ChannelDown: []int{0},
		Arrive:      []int{m.N()}, // out of range — poisons the whole batch
	}
	if _, err := s.Step(bad); err == nil {
		t.Fatal("invalid batch should fail")
	}
	if after := s.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Errorf("failed Step mutated the session:\n before %+v\n after  %+v", before, after)
	}
	if s.Steps() != 1 {
		t.Errorf("Steps() = %d after a failed step, want 1", s.Steps())
	}
}

// TestSnapshot checks the JSON-ready view against the session's accessors
// and that it survives an encode/decode round trip.
func TestSnapshot(t *testing.T) {
	s, m := newSession(t, 4, 10, 14)
	if _, err := s.Step(Event{Arrive: []int{0, 1, 2, 3, 4, 5}, ChannelDown: []int{2}}); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Channels != m.M() || snap.Buyers != m.N() {
		t.Errorf("dims (%d,%d), want (%d,%d)", snap.Channels, snap.Buyers, m.M(), m.N())
	}
	if snap.Active != s.ActiveCount() || snap.Matched != s.Matching().MatchedCount() {
		t.Errorf("active/matched %d/%d disagree with session %d/%d",
			snap.Active, snap.Matched, s.ActiveCount(), s.Matching().MatchedCount())
	}
	if snap.Welfare != s.Welfare() || snap.Steps != s.Steps() {
		t.Errorf("welfare/steps %v/%d disagree with session %v/%d",
			snap.Welfare, snap.Steps, s.Welfare(), s.Steps())
	}
	if !reflect.DeepEqual(snap.OfflineChannels, []int{2}) {
		t.Errorf("offline channels %v, want [2]", snap.OfflineChannels)
	}
	for j, i := range snap.Assignment {
		if i != s.Matching().SellerOf(j) {
			t.Errorf("assignment[%d] = %d, want %d", j, i, s.Matching().SellerOf(j))
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot did not round-trip:\n %+v\n %+v", snap, back)
	}
}

// TestEventHelpers covers Validate and Empty directly: Validate owns the
// range, finiteness and geometry checks against the market it is given.
func TestEventHelpers(t *testing.T) {
	if !(Event{}).Empty() {
		t.Error("zero event should be empty")
	}
	if (Event{ChannelUp: []int{0}}).Empty() {
		t.Error("channel churn is not empty")
	}
	_, m := newSession(t, 3, 5, 1)
	move := []BuyerMove{{Buyer: 1, To: geom.Point{X: 1, Y: 1}}}
	ok := Event{Arrive: []int{0}, Depart: []int{4}, ChannelUp: []int{0}, ChannelDown: []int{2}, Move: move}
	if err := ok.Validate(m); err != nil {
		t.Errorf("valid event rejected: %v", err)
	}
	for _, bad := range []Event{
		{Arrive: []int{5}},
		{Depart: []int{-1}},
		{ChannelUp: []int{3}},
		{ChannelDown: []int{-2}},
		{Move: []BuyerMove{{Buyer: 5, To: geom.Point{X: 1, Y: 1}}}},
		{Move: []BuyerMove{{Buyer: 0, To: geom.Point{X: math.Inf(1), Y: 1}}}},
	} {
		if err := bad.Validate(m); err == nil {
			t.Errorf("event %+v should fail validation", bad)
		}
	}
	spec := m.Spec()
	spec.BuyerPos, spec.Ranges = nil, nil
	flat, err := market.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Event{Move: move}).Validate(flat); err == nil {
		t.Error("a move on a market without geometry should fail validation")
	}
	if err := (Event{Arrive: []int{0}}).Validate(flat); err != nil {
		t.Errorf("move-free event on a market without geometry rejected: %v", err)
	}
}
