package online

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/matching"
	"specmatch/internal/xrand"
)

// sessionPair is the differential harness: the same market driven through
// the incremental engine and through a shadow full-recompute session
// (DisableIncremental), with bit-for-bit equality demanded after every
// event. StepStats carries welfare floats and the Snapshot carries the
// recomputed welfare, so equality here means the incremental path replays
// the full path's float arithmetic exactly — not just the same matching.
type sessionPair struct {
	inc  *Session // default path: persistent core.Incremental engine
	full *Session // shadow: effective-market rebuild + core.Repair per step
}

func newSessionPair(t testing.TB, sellers, buyers int, seed int64) (*sessionPair, *market.Market) {
	t.Helper()
	m, err := market.Generate(market.Config{Sellers: sellers, Buyers: buyers, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewSession(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewSession(m, core.Options{DisableIncremental: true})
	if err != nil {
		t.Fatal(err)
	}
	return &sessionPair{inc: inc, full: full}, m
}

// step drives one event through both sessions and asserts prefix
// equivalence: identical error outcome, bit-identical StepStats, a step
// welfare equal to matching.Welfare over the resulting matching, equal
// matchings, and bit-identical snapshots (assignment, active sets, exact
// welfare float).
func (p *sessionPair) step(t testing.TB, label string, ev Event) {
	t.Helper()
	stInc, errInc := p.inc.Step(ev)
	stFull, errFull := p.full.Step(ev)
	if (errInc != nil) != (errFull != nil) {
		t.Fatalf("%s: error divergence: incremental %v, full %v", label, errInc, errFull)
	}
	if errInc != nil {
		return // both rejected; Step guarantees no mutation on failure
	}
	if stInc != stFull {
		t.Fatalf("%s: StepStats divergence:\n incremental %+v\n full        %+v", label, stInc, stFull)
	}
	// The engine sums welfare from its price rows without an interference
	// probe; matching.Welfare over the session's own matching keeps one, so
	// equality here says the engine only ever sums interference-free
	// matchings.
	if got := p.inc.Welfare(); stInc.Welfare != got {
		t.Fatalf("%s: step welfare %v, matching.Welfare gives %v", label, stInc.Welfare, got)
	}
	p.compare(t, label)
}

// compare asserts the two sessions describe bit-identical states, and that
// each one's Welfare, summed from its own market and matching, is the exact
// float the rebuilt active sub-market gives.
func (p *sessionPair) compare(t testing.TB, label string) {
	t.Helper()
	for _, s := range []*Session{p.inc, p.full} {
		if got, want := s.Welfare(), matching.Welfare(s.effectiveMarket(), s.Matching()); got != want {
			t.Fatalf("%s: Welfare %v, active sub-market gives %v", label, got, want)
		}
	}
	if !p.inc.Matching().Equal(p.full.Matching()) {
		t.Fatalf("%s: matchings diverged:\n incremental %v\n full        %v",
			label, p.inc.Matching(), p.full.Matching())
	}
	snapInc, snapFull := p.inc.Snapshot(), p.full.Snapshot()
	if !reflect.DeepEqual(snapInc, snapFull) {
		t.Fatalf("%s: snapshots diverged:\n incremental %+v\n full        %+v", label, snapInc, snapFull)
	}
}

// TestIncrementalDifferentialEquivalence is the tentpole's correctness pin:
// across randomized mixed churn traces (arrivals, departures, channel
// reclaims and re-offers, duplicates) on several market shapes, every
// incremental step must be bit-for-bit equivalent to the shadow full
// recompute — StepStats, matching, and snapshot welfare all exactly equal
// at every prefix.
func TestIncrementalDifferentialEquivalence(t *testing.T) {
	steps := 60
	if testing.Short() {
		steps = 20
	}
	for _, tc := range []struct {
		sellers, buyers int
		seed            int64
	}{
		{3, 12, 41},
		{5, 28, 42},
		{8, 64, 43}, // buyer count crosses the 64-bit bitset word boundary
		{2, 6, 44},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d_seed%d", tc.sellers, tc.buyers, tc.seed), func(t *testing.T) {
			t.Parallel()
			p, m := newSessionPair(t, tc.sellers, tc.buyers, tc.seed)
			r := xrand.New(tc.seed * 7)
			for step := 0; step < steps; step++ {
				ev := randomChurn(p.inc, m, r)
				p.step(t, fmt.Sprintf("step %d (%+v)", step, ev), ev)
			}
		})
	}
}

// TestIncrementalRebuildAdoptEquivalence extends the rebuild-monotonicity
// coverage to the persistent engine: adopting rebuilds interleave with
// incremental steps, swapping the session's matching out from under the
// incremental engine. The engine must keep replaying the full path exactly
// from whatever matching the rebuild left behind, and the rebuild itself
// must stay welfare-monotone on the incremental session.
func TestIncrementalRebuildAdoptEquivalence(t *testing.T) {
	for _, seed := range []int64{51, 52, 53} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			p, m := newSessionPair(t, 5, 24, seed)
			r := xrand.New(seed * 13)
			for step := 0; step < 40; step++ {
				p.step(t, fmt.Sprintf("step %d", step), randomChurn(p.inc, m, r))
				if step%10 != 9 {
					continue
				}
				before := p.inc.Welfare()
				gotInc, err := p.inc.Rebuild(true)
				if err != nil {
					t.Fatalf("step %d: incremental-session rebuild: %v", step, err)
				}
				gotFull, err := p.full.Rebuild(true)
				if err != nil {
					t.Fatalf("step %d: full-session rebuild: %v", step, err)
				}
				if gotInc != gotFull {
					t.Fatalf("step %d: rebuild welfare diverged: incremental %v, full %v", step, gotInc, gotFull)
				}
				if gotInc < before-1e-9 {
					t.Fatalf("step %d: adopting rebuild lowered welfare %v -> %v", step, before, gotInc)
				}
				p.compare(t, fmt.Sprintf("after rebuild at step %d", step))
				checkServiceInvariants(t, p.inc)
			}
		})
	}
}

// TestIncrementalSameEventReversals drives events that name one buyer or
// channel on both sides of a transition, or a buyer and her seller's channel
// in one event, through the differential pair on a warmed session.
// randomChurn never lists one index twice, and the session applies an event
// in a fixed order (departures, arrivals, reclaims, re-offers, moves), so
// these are the events where the engine's view of the final state could
// depend on that order.
func TestIncrementalSameEventReversals(t *testing.T) {
	for _, tc := range []struct {
		sellers, buyers int
		seed            int64
	}{
		{4, 24, 61},
		{6, 40, 62},
		{8, 70, 63},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%dx%d_seed%d", tc.sellers, tc.buyers, tc.seed), func(t *testing.T) {
			t.Parallel()
			p, m := newSessionPair(t, tc.sellers, tc.buyers, tc.seed)
			var all Event
			for j := 0; j < m.N(); j++ {
				all.Arrive = append(all.Arrive, j)
			}
			p.step(t, "warm: arrive all", all)
			r := xrand.New(tc.seed)
			for k := 0; k < 4; k++ {
				p.step(t, fmt.Sprintf("warm %d", k), randomChurn(p.inc, m, r))
			}
			mu := p.inc.Matching()
			// heldChannel returns the n-th online channel holding a
			// coalition, and matchedBuyer the n-th matched buyer.
			heldChannel := func(n int) int {
				for i := 0; i < m.M(); i++ {
					if p.inc.ChannelOnline(i) && mu.CoalitionSize(i) > 0 {
						if n == 0 {
							return i
						}
						n--
					}
				}
				t.Fatalf("warmed session has too few held channels: %v", mu)
				return -1
			}
			matchedBuyer := func(n int) int {
				for j := 0; j < m.N(); j++ {
					if mu.IsMatched(j) {
						if n == 0 {
							return j
						}
						n--
					}
				}
				t.Fatalf("warmed session has too few matched buyers: %v", mu)
				return -1
			}

			i := heldChannel(0)
			p.step(t, "held channel down and up", Event{ChannelDown: []int{i}, ChannelUp: []int{i}})

			j := matchedBuyer(0)
			p.step(t, "matched buyer departs and re-arrives", Event{Depart: []int{j}, Arrive: []int{j}})

			j = matchedBuyer(1)
			i = mu.SellerOf(j)
			p.step(t, "matched buyer departs", Event{Depart: []int{j}})
			p.step(t, "buyer arrives as her seller goes down", Event{Arrive: []int{j}, ChannelDown: []int{i}})
			p.step(t, "her seller comes back up", Event{ChannelUp: []int{i}})

			j = matchedBuyer(2)
			to, _ := p.inc.Market().BuyerPos(matchedBuyer(3))
			p.step(t, "departing buyer moves", Event{Depart: []int{j}, Move: []BuyerMove{{Buyer: j, To: to}}})

			a, b := heldChannel(0), heldChannel(1)
			p.step(t, "two channels down, one back up", Event{ChannelDown: []int{a, b}, ChannelUp: []int{a}})

			// A final mixed step runs Stage II over every column and row the
			// events above touched.
			p.step(t, "after the reversals", randomChurn(p.inc, m, r))
		})
	}
}

// FuzzIncrementalStep feeds byte-program-driven event traces — every Event
// type, duplicate indices, and out-of-range indices that must fail Validate
// — through the differential pair, asserting bit-for-bit equality at every
// prefix. Wired into the CI fuzz-smoke matrix.
func FuzzIncrementalStep(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 1, 0, 2, 0, 3})             // arrivals
	f.Add(int64(2), []byte{0, 0, 0, 1, 1, 0, 0, 0})             // arrive, depart, re-arrive
	f.Add(int64(3), []byte{0, 0, 0, 1, 3, 0, 2, 0})             // channel down displaces, back up
	f.Add(int64(4), []byte{4, 0, 4, 7, 4, 13, 4, 20})           // mixed batches
	f.Add(int64(5), []byte{0, 0, 5, 0, 0, 1, 5, 9})             // invalid events interleaved
	f.Add(int64(6), []byte{4, 3, 3, 1, 4, 5, 2, 1, 4, 9, 1, 2}) // churn-heavy mix
	f.Add(int64(7), []byte{0, 0, 6, 0, 6, 61, 6, 122, 1, 0})    // arrive, hop around, depart
	f.Add(int64(8), []byte{6, 5, 7, 2, 6, 5, 7, 3, 4, 1})       // moves interleaved with invalid moves
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		p, m := newSessionPair(t, 4, 20, seed)
		n, mm := m.N(), m.M()
		ops := len(program) / 2
		if ops > 100 {
			ops = 100
		}
		for k := 0; k < ops; k++ {
			op, arg := int(program[2*k])%8, int(program[2*k+1])
			var ev Event
			switch op {
			case 0:
				ev.Arrive = []int{arg % n}
			case 1:
				ev.Depart = []int{arg % n}
			case 2:
				ev.ChannelUp = []int{arg % mm}
			case 3:
				ev.ChannelDown = []int{arg % mm}
			case 4:
				// Mixed batch with duplicate and overlapping indices: the
				// same buyer departing and arriving in one event, repeated
				// entries, and simultaneous channel churn.
				j := arg % n
				ev.Arrive = []int{j, (j + 1) % n, j}
				ev.Depart = []int{j, (j + 2) % n}
				ev.ChannelDown = []int{arg % mm}
				ev.ChannelUp = []int{(arg + 1) % mm}
			case 5:
				// Out of range: Validate must reject on both paths and leave
				// both sessions untouched.
				ev.Arrive = []int{n + arg}
			case 6:
				// Move to a deterministic waypoint on an 11x11 lattice over
				// the deployment area — coarse enough that fuzzed traces
				// revisit points, exercising same-point moves and row
				// restoration alongside genuine rewires.
				ev.Move = []BuyerMove{{Buyer: arg % n,
					To: geom.Point{X: float64(arg % 11), Y: float64((arg / 11) % 11)}}}
			case 7:
				// Invalid move: out-of-range buyer or non-finite coordinate,
				// rejected identically on both paths with no mutation.
				if arg%2 == 0 {
					ev.Move = []BuyerMove{{Buyer: n + arg, To: geom.Point{X: 1, Y: 1}}}
				} else {
					ev.Move = []BuyerMove{{Buyer: arg % n, To: geom.Point{X: math.NaN(), Y: 0}}}
				}
			}
			p.step(t, fmt.Sprintf("op %d (%+v)", k, ev), ev)
		}
	})
}
