package market

import (
	"fmt"
	"reflect"
	"testing"

	"specmatch/internal/geom"
	"specmatch/internal/graph"
	"specmatch/internal/xrand"
)

// geoMarket builds a market with explicit geometry: per-channel graphs are
// constructed naively from the rewire predicate (co-owned buyers always
// conflict; otherwise DistSq <= range^2), the same rule MoveBuyer re-derives
// incrementally. Tests compare the incremental result against this
// from-scratch construction.
func geoMarket(t *testing.T, positions []geom.Point, owners []int, ranges []float64) *Market {
	t.Helper()
	n := len(positions)
	prices := make([][]float64, len(ranges))
	for i := range prices {
		prices[i] = make([]float64, n)
		for j := range prices[i] {
			prices[i][j] = float64(1 + (i+j)%5)
		}
	}
	graphs := make([]*graph.Graph, len(ranges))
	for i := range graphs {
		graphs[i] = predicateGraph(positions, owners, ranges[i])
	}
	m, err := New(prices, graphs)
	if err != nil {
		t.Fatal(err)
	}
	m.buyerOwner = append([]int(nil), owners...)
	m.buyerPos = append([]geom.Point(nil), positions...)
	m.ranges = append([]float64(nil), ranges...)
	return m
}

func predicateGraph(positions []geom.Point, owners []int, rng float64) *graph.Graph {
	g := graph.New(len(positions))
	r2 := rng * rng
	for j := range positions {
		for k := j + 1; k < len(positions); k++ {
			if owners[j] == owners[k] || positions[j].DistSq(positions[k]) <= r2 {
				if err := g.AddEdge(j, k); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

func randomDeployment(r interface{ Float64() float64 }, n int) ([]geom.Point, []int) {
	positions := make([]geom.Point, n)
	owners := make([]int, n)
	for j := range positions {
		positions[j] = geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		owners[j] = j
	}
	// One co-owned pair so every trace carries owner edges that must survive
	// arbitrary rewires regardless of distance.
	if n >= 2 {
		owners[n-1] = owners[0]
	}
	return positions, owners
}

// TestMoveBuyerMatchesNaiveRebuild: after every incremental MoveBuyer, each
// channel graph must equal the graph rebuilt from scratch over the current
// positions — the mobility analogue of the churn engine's differential pin.
// The ranges are out of order and include a tie, because MoveBuyer derives
// every channel's row from the channels sorted by range.
func TestMoveBuyerMatchesNaiveRebuild(t *testing.T) {
	for _, seed := range []int64{61, 62, 63} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := xrand.New(seed)
			positions, owners := randomDeployment(r, 17)
			ranges := []float64{2.5, 1.2, 4, 1.2}
			m := geoMarket(t, positions, owners, ranges)
			for step := 0; step < 60; step++ {
				j := int(r.Float64() * float64(len(positions)))
				p := geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
				if err := m.MoveBuyer(j, p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				positions[j] = p
				for i := range ranges {
					want := predicateGraph(positions, owners, ranges[i])
					if got := m.Graph(i); got.M() != want.M() || !reflect.DeepEqual(got.Edges(), want.Edges()) {
						t.Fatalf("step %d channel %d: incremental graph diverged from rebuild\n got %v\nwant %v",
							step, i, got.Edges(), want.Edges())
					}
				}
			}
		})
	}
}

// TestMoveOutAndBackRestoresRows: moving a buyer away and then back to its
// exact original position must restore every channel's interference rows —
// neighbors and edge counts.
func TestMoveOutAndBackRestoresRows(t *testing.T) {
	r := xrand.New(71)
	positions, owners := randomDeployment(r, 13)
	ranges := []float64{1.5, 3}
	m := geoMarket(t, positions, owners, ranges)
	for j := 0; j < m.N(); j++ {
		home, ok := m.BuyerPos(j)
		if !ok {
			t.Fatalf("buyer %d lost its position", j)
		}
		before := make([][]int, m.M())
		counts := make([]int, m.M())
		for i := 0; i < m.M(); i++ {
			before[i] = m.Graph(i).Neighbors(j)
			counts[i] = m.Graph(i).M()
		}
		if err := m.MoveBuyer(j, geom.Point{X: -50, Y: -50}); err != nil {
			t.Fatal(err)
		}
		if err := m.MoveBuyer(j, home); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.M(); i++ {
			if got := m.Graph(i).Neighbors(j); !reflect.DeepEqual(got, before[i]) {
				t.Errorf("buyer %d channel %d: neighbors %v after round trip, want %v", j, i, got, before[i])
			}
			if got := m.Graph(i).M(); got != counts[i] {
				t.Errorf("buyer %d channel %d: %d edges after round trip, want %d", j, i, got, counts[i])
			}
		}
	}
}

// TestRangeMonotonicityUnderRewires: a market whose channels hear further
// (larger conflict ranges) must conflict on a superset of edges, and
// arbitrary mobility must preserve that containment channel by channel —
// the radio-model monotonicity the paper's disk calibration relies on.
func TestRangeMonotonicityUnderRewires(t *testing.T) {
	r := xrand.New(83)
	positions, owners := randomDeployment(r, 19)
	near := []float64{1, 2, 3}
	far := []float64{1.5, 3, 4.5}
	a := geoMarket(t, positions, owners, near)
	b := geoMarket(t, positions, owners, far)
	assertSubset := func(step int) {
		t.Helper()
		for i := range near {
			for _, e := range a.Graph(i).Edges() {
				if !b.Graph(i).HasEdge(e[0], e[1]) {
					t.Fatalf("step %d channel %d: edge %v present at range %.1f but missing at %.1f",
						step, i, e, near[i], far[i])
				}
			}
		}
	}
	assertSubset(-1)
	for step := 0; step < 80; step++ {
		j := int(r.Float64() * float64(len(positions)))
		p := geom.Point{X: r.Float64() * 10, Y: r.Float64() * 10}
		if err := a.MoveBuyer(j, p); err != nil {
			t.Fatal(err)
		}
		if err := b.MoveBuyer(j, p); err != nil {
			t.Fatal(err)
		}
		assertSubset(step)
	}
}

// TestMoveBuyerErrors: geometry-less and out-of-range moves are rejected
// without mutating the market.
func TestMoveBuyerErrors(t *testing.T) {
	abstract, err := New(
		[][]float64{{1, 2}, {3, 4}},
		[]*graph.Graph{graph.New(2), graph.Complete(2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	if abstract.HasGeometry() {
		t.Fatal("abstract market claims geometry")
	}
	if err := abstract.MoveBuyer(0, geom.Point{X: 1, Y: 1}); err == nil {
		t.Error("geometry-less move accepted")
	}

	r := xrand.New(91)
	positions, owners := randomDeployment(r, 5)
	m := geoMarket(t, positions, owners, []float64{2})
	edges := m.Graph(0).Edges()
	for _, j := range []int{-1, 5, 99} {
		if err := m.MoveBuyer(j, geom.Point{}); err == nil {
			t.Errorf("out-of-range buyer %d accepted", j)
		}
	}
	if !reflect.DeepEqual(m.Graph(0).Edges(), edges) {
		t.Error("rejected move mutated the graph")
	}
}

// fig7aMoves returns a fig7a-scale market (10 channels, 320 buyers) and a
// cycle of short random-direction strides, the shape of the mobile churn
// workload's moves.
func fig7aMoves(tb testing.TB) (*Market, []int, []geom.Point) {
	tb.Helper()
	m, err := Generate(Config{Sellers: 10, Buyers: 320, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	r := xrand.New(7)
	buyers := make([]int, 1024)
	to := make([]geom.Point, len(buyers))
	for k := range buyers {
		j := r.Intn(m.N())
		p, _ := m.BuyerPos(j)
		buyers[k] = j
		to[k] = geom.Point{X: p.X + 1.2*(r.Float64()-0.5), Y: p.Y + 1.2*(r.Float64()-0.5)}
	}
	return m, buyers, to
}

// TestMoveBuyerAllocs: once its scratch exists, MoveBuyer allocates nothing,
// whether or not the move flips an edge.
func TestMoveBuyerAllocs(t *testing.T) {
	m, _, _ := fig7aMoves(t)
	j := 3
	home, _ := m.BuyerPos(j)
	away := geom.Point{X: home.X + 4, Y: home.Y}
	before := m.Graph(0).Neighbors(j)
	if err := m.MoveBuyer(j, away); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m.Graph(0).Neighbors(j), before) {
		t.Fatal("move flipped no edge on channel 0; the allocation bound is vacuous")
	}
	if got := testing.AllocsPerRun(50, func() {
		if err := m.MoveBuyer(j, home); err != nil {
			t.Fatal(err)
		}
		if err := m.MoveBuyer(j, away); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("out-and-back move pair allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() {
		if err := m.MoveBuyer(j, away); err != nil {
			t.Fatalf("same-point move: %v", err)
		}
	}); got != 0 {
		t.Errorf("same-point move allocates %v times, want 0", got)
	}
}

// BenchmarkMoveBuyer measures one move on a fig7a-scale market.
func BenchmarkMoveBuyer(b *testing.B) {
	m, buyers, to := fig7aMoves(b)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		x := k % len(buyers)
		if err := m.MoveBuyer(buyers[x], to[x]); err != nil {
			b.Fatal(err)
		}
	}
}
