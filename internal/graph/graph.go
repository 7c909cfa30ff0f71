// Package graph implements the undirected interference graphs at the heart of
// spectrum matching (§II-A of the paper). Each channel i has its own graph
// G_i = (V, E_i) over the set of virtual buyers; an edge connects two buyers
// that may not reuse channel i simultaneously.
//
// Vertices are dense integer IDs [0, N). The adjacency structure has exactly
// one representation: a word-parallel bitset row per vertex (Row). Edge
// queries, independence checks, conflict screening and the MWIS kernels in
// package mwis are AND/ANDNOT/popcount word loops over those rows, and every
// neighbor iteration (Neighbors, EachNeighbor, Edges) walks a row with
// Bits.ForEach. That walk visits neighbors in ascending order, and the order
// is load-bearing: downstream floating-point neighborhood sums must be
// bit-for-bit reproducible across runs, so it is part of the contract.
package graph

import (
	"fmt"
	"math/bits"
)

// Graph is a simple undirected graph over vertices 0..n-1. The zero value is
// not usable; construct with New.
type Graph struct {
	n     int
	words int      // bitset words per adjacency row: WordsFor(n)
	rows  []uint64 // row-major adjacency bitsets: row v is rows[v*words:(v+1)*words]
	edges int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	words := WordsFor(n)
	return &Graph{
		n:     n,
		words: words,
		rows:  make([]uint64, n*words),
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.edges }

// Words returns the number of 64-bit words per adjacency row — the length
// callers should size Bits scratch masks to when combining them with Row.
func (g *Graph) Words() int { return g.words }

// Row returns vertex v's adjacency bitset: bit u is set iff {v, u} is an
// edge. The returned slice aliases the graph's storage — callers must treat
// it as read-only. Out-of-range v returns nil (no set bits), which is what
// makes every per-vertex query below safe on out-of-range input.
func (g *Graph) Row(v int) Bits {
	if !g.validVertex(v) {
		return nil
	}
	return Bits(g.rows[v*g.words : (v+1)*g.words])
}

// validVertex reports whether v is a vertex of g.
func (g *Graph) validVertex(v int) bool { return v >= 0 && v < g.n }

// AddEdge inserts the undirected edge {u, v}. Self-loops and out-of-range
// vertices are reported as errors; duplicate insertions are idempotent.
func (g *Graph) AddEdge(u, v int) error {
	if !g.validVertex(u) || !g.validVertex(v) {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", u)
	}
	if g.Row(u).Get(v) {
		return nil
	}
	g.Row(u).Set(v)
	g.Row(v).Set(u)
	g.edges++
	return nil
}

// HasEdge reports whether {u, v} is an edge. Out-of-range queries and
// self-queries return false.
func (g *Graph) HasEdge(u, v int) bool { return u != v && g.Row(u).Get(v) }

// Degree returns the number of neighbors of v, or 0 for out-of-range v.
func (g *Graph) Degree(v int) int { return g.Row(v).Count() }

// Neighbors returns the neighbors of v in ascending order, nil when v has
// none or is out of range. The slice is fresh; the caller may retain it.
func (g *Graph) Neighbors(v int) []int {
	d := g.Degree(v)
	if d == 0 {
		return nil
	}
	out := make([]int, 0, d)
	g.Row(v).ForEach(func(u int) bool { out = append(out, u); return true })
	return out
}

// EachNeighbor calls fn for every neighbor of v in ascending order, stopping
// early if fn returns false. It performs no allocation. The order is part of
// the contract: callers accumulate floating-point sums over neighborhoods,
// and reproducibility requires a fixed iteration order.
func (g *Graph) EachNeighbor(v int, fn func(u int) bool) {
	g.Row(v).ForEach(fn)
}

// IsIndependent reports whether no two vertices of set are adjacent. The
// empty set and singletons are independent.
func (g *Graph) IsIndependent(set []int) bool {
	for a := 0; a < len(set); a++ {
		for b := a + 1; b < len(set); b++ {
			if g.HasEdge(set[a], set[b]) {
				return false
			}
		}
	}
	return true
}

// IsIndependentMask is the word-parallel IsIndependent: mask must hold
// exactly the candidate set's bits (callers keep it as reusable scratch).
// It runs in O(|set| · words) instead of O(|set|²).
func (g *Graph) IsIndependentMask(set []int, mask Bits) bool {
	for _, v := range set {
		if AndAny(g.Row(v), mask) {
			return false
		}
	}
	return true
}

// ConflictsWith reports whether vertex v is adjacent to any vertex in set.
func (g *Graph) ConflictsWith(v int, set []int) bool {
	row := g.Row(v)
	for _, u := range set {
		if row.Get(u) {
			return true
		}
	}
	return false
}

// ConflictsMask reports whether vertex v is adjacent to any vertex of the
// mask — one AND-any word loop, the hot screening kernel of the incremental
// repair path.
func (g *Graph) ConflictsMask(v int, mask Bits) bool { return AndAny(g.Row(v), mask) }

// RewireVertex replaces vertex v's entire neighborhood in place: after the
// call, v is adjacent to exactly the vertices set in row, which must have
// Words() words. A self bit, a bit at or above N, or a row of the wrong
// length is an error, applied atomically — a bad input leaves g untouched.
// Only the symmetric difference of the old and new rows is touched, found by
// one word-parallel XOR pass, so the cost is O(Words() + flipped edges).
// This is the mobility kernel: a buyer moving re-derives her interference
// row per channel. row is read, never retained, and must not alias g's own
// storage. It reports whether any edge changed.
func (g *Graph) RewireVertex(v int, row Bits) (bool, error) {
	if !g.validVertex(v) {
		return false, fmt.Errorf("graph: rewire vertex %d out of range [0,%d)", v, g.n)
	}
	if len(row) != g.words {
		return false, fmt.Errorf("graph: rewire row has %d words, want %d", len(row), g.words)
	}
	if row.Get(v) {
		return false, fmt.Errorf("graph: self-loop on vertex %d", v)
	}
	if tail := uint(g.n) & wordMask; tail != 0 {
		if extra := row[g.words-1] >> tail; extra != 0 {
			u := g.n + bits.TrailingZeros64(extra)
			return false, fmt.Errorf("graph: rewire neighbor %d out of range [0,%d)", u, g.n)
		}
	}
	old := g.Row(v)
	changed := false
	for w, next := range row {
		diff := old[w] ^ next
		if diff == 0 {
			continue
		}
		changed = true
		base := w << wordShift
		for ; diff != 0; diff &= diff - 1 {
			b := bits.TrailingZeros64(diff)
			if next&(1<<uint(b)) != 0 {
				g.Row(base + b).Set(v)
				g.edges++
			} else {
				g.Row(base + b).Clear(v)
				g.edges--
			}
		}
		old[w] = next
	}
	return changed, nil
}

// UnionRowsInto ORs the adjacency rows of every vertex set in seed into out:
// out becomes (out ∪ N(seed)), the one-hop interference neighborhood. This
// is the kernel behind the online engine's dirty-neighborhood closure —
// isolated vertices contribute nothing, a clique seed saturates out with the
// whole clique. out must have at least Words() words; seed may be shorter.
func (g *Graph) UnionRowsInto(seed Bits, out Bits) {
	seed.ForEach(func(v int) bool {
		if v >= g.n {
			return false // seed may cover a larger universe than g
		}
		out.Or(g.Row(v))
		return true
	})
}

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.edges)
	for u := 0; u < g.n; u++ {
		g.Row(u).ForEach(func(v int) bool {
			if u < v {
				out = append(out, [2]int{u, v})
			}
			return true
		})
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	copy(c.rows, g.rows)
	c.edges = g.edges
	return c
}

// Complement returns the complement graph on the same vertex set.
func (g *Graph) Complement() *Graph {
	c := New(g.n)
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if !g.HasEdge(u, v) {
				// Vertices are in range by construction, so AddEdge cannot fail.
				_ = c.AddEdge(u, v)
			}
		}
	}
	return c
}

// InducedDegree returns the number of neighbors of v inside the given vertex
// subset (membership given as a boolean slice of length N).
func (g *Graph) InducedDegree(v int, in []bool) int {
	d := 0
	g.Row(v).ForEach(func(u int) bool {
		if u < len(in) && in[u] {
			d++
		}
		return true
	})
	return d
}

// InducedDegreeMask returns the number of neighbors of v inside the mask —
// popcount(Row(v) AND mask), the word-parallel InducedDegree.
func (g *Graph) InducedDegreeMask(v int, mask Bits) int { return AndCount(g.Row(v), mask) }

// String returns a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.edges)
}
