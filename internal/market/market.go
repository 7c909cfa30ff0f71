// Package market implements the spectrum-market model of §II of the paper.
//
// A market has I physical sellers owning m_i channels each and J physical
// buyers demanding n_j channels each. Following the paper (and TAMES [7],
// which it cites for the construction), both sides are expanded into
// "virtual" participants: M = Σ m_i virtual sellers — each a single channel —
// and N = Σ n_j virtual buyers, each trading exactly one channel. Virtual
// buyers originating from the same physical buyer interfere with each other
// on every channel so that they are never matched to the same seller.
//
// Channel heterogeneity is captured by one interference graph per channel
// over the virtual buyers; buyer j's value for (and offered price on) channel
// i is b_{i,j} = Prices[i][j].
package market

import (
	"fmt"
	"sort"

	"specmatch/internal/geom"
	"specmatch/internal/graph"
	"specmatch/internal/stats"
)

// Unmatched is the sentinel seller index for a buyer that holds no channel.
const Unmatched = -1

// Market is a fully expanded (virtual) spectrum market. Construct with New,
// Generate, or FromSpec; the zero value is not usable.
type Market struct {
	// prices[i][j] is b_{i,j}: buyer j's utility for, and offered price on,
	// channel i.
	prices [][]float64
	// graphs[i] is the interference graph G_i over virtual buyers.
	graphs []*graph.Graph

	// sellerOwner[i] / buyerOwner[j] map virtual participants to physical
	// ones. For directly constructed markets they default to the identity.
	sellerOwner []int
	buyerOwner  []int

	// Geometry, retained when the market was generated from a deployment so
	// examples and ablations can inspect it. Empty for abstract markets.
	buyerPos []geom.Point
	ranges   []float64

	// move is MoveBuyer's reusable working set, built on the first move.
	// It belongs to this instance alone: Clone never copies it.
	move *moveScratch
}

// New builds a market from explicit prices and per-channel interference
// graphs: prices[i][j] = b_{i,j}; graphs[i] over the N virtual buyers.
func New(prices [][]float64, graphs []*graph.Graph) (*Market, error) {
	m := &Market{prices: prices, graphs: graphs}
	m.sellerOwner = identity(len(prices))
	if len(prices) > 0 {
		m.buyerOwner = identity(len(prices[0]))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// M returns the number of virtual sellers (channels).
func (m *Market) M() int { return len(m.prices) }

// N returns the number of virtual buyers.
func (m *Market) N() int {
	if len(m.prices) == 0 {
		return 0
	}
	return len(m.prices[0])
}

// Price returns b_{i,j}, buyer j's utility for and offered price on channel i.
func (m *Market) Price(i, j int) float64 { return m.prices[i][j] }

// Graph returns the interference graph of channel i.
func (m *Market) Graph(i int) *graph.Graph { return m.graphs[i] }

// SellerOwner returns the physical seller owning virtual seller i.
func (m *Market) SellerOwner(i int) int { return m.sellerOwner[i] }

// BuyerOwner returns the physical buyer behind virtual buyer j.
func (m *Market) BuyerOwner(j int) int { return m.buyerOwner[j] }

// BuyerPos returns virtual buyer j's location and whether geometry is known.
func (m *Market) BuyerPos(j int) (geom.Point, bool) {
	if j >= len(m.buyerPos) {
		return geom.Point{}, false
	}
	return m.buyerPos[j], true
}

// Range returns channel i's transmission range and whether geometry is known.
func (m *Market) Range(i int) (float64, bool) {
	if i >= len(m.ranges) {
		return 0, false
	}
	return m.ranges[i], true
}

// HasGeometry reports whether the market retains full deployment geometry —
// a position for every virtual buyer and a transmission range for every
// channel — the precondition for mobility (MoveBuyer). Generated markets
// have it; abstract (New/FromSpec-without-geometry) markets do not.
func (m *Market) HasGeometry() bool {
	return m.N() > 0 && len(m.buyerPos) == m.N() && len(m.ranges) == m.M()
}

// Clone returns a copy of m whose mutable state — interference graphs and
// buyer positions, the two things MoveBuyer touches — is deep-copied.
// Prices, owner maps, and ranges are immutable after construction and are
// shared. Sessions clone the market they are given so mobility never leaks
// into the caller's instance.
func (m *Market) Clone() *Market {
	c := *m
	c.graphs = make([]*graph.Graph, len(m.graphs))
	for i, g := range m.graphs {
		c.graphs[i] = g.Clone()
	}
	c.buyerPos = append([]geom.Point(nil), m.buyerPos...)
	c.move = nil
	return &c
}

// MoveBuyer relocates virtual buyer j to p and re-derives j's interference
// edges on every channel from the market's radio rule at calibration: two
// buyers conflict on channel i when they are within its transmission range
// (the disk rule, which the SINR model reproduces at its nominal threshold)
// or share a physical owner — co-owner edges are structural (§II-A) and
// survive any move, keeping Validate an invariant. Only j's rows are
// rewired, via the graph's in-place kernel. A move that flips no edge still
// records the position, so later moves measure from p.
//
// Ranges nest, so each other buyer's distance to p is computed once and
// placed in the row of the smallest range covering it; a prefix OR over the
// ranges, ascending, then yields every channel's new row. Per move that is
// O(N·M) distance and range compares, O(M·N/64) row words and O(1) per
// flipped edge, and in steady state nothing is allocated.
func (m *Market) MoveBuyer(j int, p geom.Point) error {
	if !m.HasGeometry() {
		return fmt.Errorf("market: move buyer %d: market retains no geometry", j)
	}
	if j < 0 || j >= m.N() {
		return fmt.Errorf("market: move buyer %d out of range [0,%d)", j, m.N())
	}
	m.buyerPos[j] = p
	sc := m.moveScratch()
	for _, row := range sc.rows {
		row.Reset()
	}
	top := sc.r2[len(sc.r2)-1]
	for k, q := range m.buyerPos {
		if k == j {
			continue
		}
		t := 0 // co-owners conflict on every channel
		if m.buyerOwner[k] != m.buyerOwner[j] {
			// The disk rule d <= r2: a buyer out of the largest range (or at
			// a NaN distance) is in no row. Otherwise t is the first index
			// with r2[t] >= d, counted without a branch per range.
			d := p.DistSq(q)
			if !(d <= top) {
				continue
			}
			for _, r := range sc.r2 {
				t += b2i(r < d)
			}
		}
		sc.rows[t].Set(k)
	}
	for t := 1; t < len(sc.rows); t++ {
		sc.rows[t].Or(sc.rows[t-1])
	}
	for i, g := range m.graphs {
		if _, err := g.RewireVertex(j, sc.rows[sc.rank[i]]); err != nil {
			return fmt.Errorf("market: move buyer %d: channel %d: %w", j, i, err)
		}
	}
	return nil
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// moveScratch is MoveBuyer's working set: r2 holds the squared channel
// ranges ascending, channel i's range is r2[rank[i]], and after a move
// rows[t] holds every buyer within r2[t] of the mover.
type moveScratch struct {
	r2   []float64
	rank []int
	rows []graph.Bits
}

// moveScratch returns the market's move scratch, building it on first use.
func (m *Market) moveScratch() *moveScratch {
	if m.move == nil {
		sc := &moveScratch{r2: make([]float64, m.M()), rank: make([]int, m.M()), rows: make([]graph.Bits, m.M())}
		for i, r := range m.ranges {
			sc.r2[i] = r * r
			sc.rows[i] = graph.NewBits(m.N())
		}
		sort.Float64s(sc.r2)
		for i, r := range m.ranges {
			sc.rank[i] = sort.SearchFloat64s(sc.r2, r*r) // ties share the first index
		}
		m.move = sc
	}
	return m.move
}

// Interferes reports whether buyers j and j2 interfere on channel i
// (e^i_{j,j2} = 1).
func (m *Market) Interferes(i, j, j2 int) bool { return m.graphs[i].HasEdge(j, j2) }

// InterfererIn reports whether buyer j interferes on channel i with any buyer
// in the coalition (j itself is skipped, so a coalition may include j).
func (m *Market) InterfererIn(i, j int, coalition []int) bool {
	for _, j2 := range coalition {
		if j2 != j && m.graphs[i].HasEdge(j, j2) {
			return true
		}
	}
	return false
}

// BuyerPrefOrder returns buyer j's proposal order: channels sorted by
// descending b_{i,j} (ties toward the smaller channel index), excluding
// channels with non-positive utility — a rational buyer never proposes where
// her utility would not beat being unmatched.
func (m *Market) BuyerPrefOrder(j int) []int {
	order := make([]int, 0, m.M())
	for i := 0; i < m.M(); i++ {
		if m.prices[i][j] > 0 {
			order = append(order, i)
		}
	}
	// Insertion sort keeps the smaller-index-first tie break explicit and is
	// plenty fast for the M values markets use.
	for a := 1; a < len(order); a++ {
		for b := a; b > 0 && m.prices[order[b]][j] > m.prices[order[b-1]][j]; b-- {
			order[b], order[b-1] = order[b-1], order[b]
		}
	}
	return order
}

// UtilityVectors returns each physical buyer's utility vector over channels,
// as used by the paper's SRCC similarity metric. Virtual buyers of the same
// physical buyer share a vector; the first virtual buyer's column is used.
func (m *Market) UtilityVectors() [][]float64 {
	firstVirtual := make(map[int]int)
	ownerOrder := make([]int, 0)
	for j := 0; j < m.N(); j++ {
		o := m.buyerOwner[j]
		if _, ok := firstVirtual[o]; !ok {
			firstVirtual[o] = j
			ownerOrder = append(ownerOrder, o)
		}
	}
	vectors := make([][]float64, 0, len(ownerOrder))
	for _, o := range ownerOrder {
		j := firstVirtual[o]
		vec := make([]float64, m.M())
		for i := 0; i < m.M(); i++ {
			vec[i] = m.prices[i][j]
		}
		vectors = append(vectors, vec)
	}
	return vectors
}

// AvgSimilarity returns the average pairwise SRCC across physical buyers'
// utility vectors (§V-A).
func (m *Market) AvgSimilarity() (float64, error) {
	rho, err := stats.AveragePairwiseSRCC(m.UtilityVectors())
	if err != nil {
		return 0, fmt.Errorf("market: similarity: %w", err)
	}
	return rho, nil
}

// WelfareUpperBound returns Σ_j max_i b_{i,j}, a trivial upper bound on any
// matching's social welfare (useful for sanity checks and B&B seeding).
func (m *Market) WelfareUpperBound() float64 {
	var total float64
	for j := 0; j < m.N(); j++ {
		best := 0.0
		for i := 0; i < m.M(); i++ {
			if m.prices[i][j] > best {
				best = m.prices[i][j]
			}
		}
		total += best
	}
	return total
}

// Validate checks internal consistency: rectangular prices, one graph per
// channel sized to N, owner maps covering every virtual participant, and
// co-owned virtual buyers interfering on every channel (§II-A).
func (m *Market) Validate() error {
	if len(m.prices) == 0 {
		return fmt.Errorf("market: no channels")
	}
	n := len(m.prices[0])
	if n == 0 {
		return fmt.Errorf("market: no buyers")
	}
	for i, row := range m.prices {
		if len(row) != n {
			return fmt.Errorf("market: price row %d has %d entries, want %d", i, len(row), n)
		}
		for j, p := range row {
			if p < 0 {
				return fmt.Errorf("market: negative price b[%d][%d] = %v", i, j, p)
			}
		}
	}
	if len(m.graphs) != len(m.prices) {
		return fmt.Errorf("market: %d interference graphs for %d channels", len(m.graphs), len(m.prices))
	}
	for i, g := range m.graphs {
		if g == nil {
			return fmt.Errorf("market: channel %d has no interference graph", i)
		}
		if g.N() != n {
			return fmt.Errorf("market: channel %d graph has %d vertices, want %d", i, g.N(), n)
		}
	}
	if len(m.sellerOwner) != len(m.prices) {
		return fmt.Errorf("market: seller owner map has %d entries, want %d", len(m.sellerOwner), len(m.prices))
	}
	if len(m.buyerOwner) != n {
		return fmt.Errorf("market: buyer owner map has %d entries, want %d", len(m.buyerOwner), n)
	}
	for j := 0; j < n; j++ {
		for j2 := j + 1; j2 < n; j2++ {
			if m.buyerOwner[j] != m.buyerOwner[j2] {
				continue
			}
			for i, g := range m.graphs {
				if !g.HasEdge(j, j2) {
					return fmt.Errorf("market: co-owned virtual buyers %d and %d must interfere on channel %d", j, j2, i)
				}
			}
		}
	}
	return nil
}

// String returns a compact description.
func (m *Market) String() string {
	return fmt.Sprintf("market(M=%d sellers, N=%d buyers)", m.M(), m.N())
}
