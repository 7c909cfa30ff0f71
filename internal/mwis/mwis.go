// Package mwis solves the maximum-weight independent set problem that sellers
// face when forming their most-preferred spectrum coalition (Algorithm 1 line
// 12 and Algorithm 2 line 13 of the paper): among a candidate set of buyers,
// pick a pairwise non-interfering subset with maximum total offered price.
//
// Exact MWIS is NP-hard, so the paper adopts the linear-time greedy
// algorithms of Sakai, Togasaki and Yamazaki ("A Note on Greedy Algorithms
// for the Maximum Weighted Independent Set Problem", Discrete Applied
// Mathematics 126(2), 2003). This package implements their GWMIN, GWMIN2 and
// GWMAX heuristics, a take-the-best combination, and an exact
// branch-and-bound solver used for small instances, verification, and
// ablations.
//
// All solvers are deterministic: ties break toward the smaller vertex ID, so
// repeated runs over the same market produce identical matchings.
package mwis

import (
	"fmt"
	"math/bits"
	"sort"

	"specmatch/internal/graph"
)

// trailingZeros is math/bits.TrailingZeros64 under a name short enough for
// the word-iteration loops.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// Algorithm selects a MWIS solving strategy.
type Algorithm int

// Supported algorithms. GWMIN is the package default: it carries the
// w(v)/(deg(v)+1) approximation guarantee from Sakai et al. and is the
// natural reading of the paper's "greedy algorithms ... in linear time".
const (
	GWMIN      Algorithm = iota + 1 // repeatedly take argmax w(v)/(d(v)+1), delete closed neighborhood
	GWMIN2                          // like GWMIN but with weight-relative ratio w(v)/w(N[v])
	GWMAX                           // repeatedly delete argmin w(v)/(d(v)(d(v)+1)) until edgeless
	GreedyBest                      // run GWMIN, GWMIN2 and GWMAX; keep the heaviest result
	Exact                           // branch-and-bound; exponential worst case
)

var _algorithmNames = map[Algorithm]string{
	GWMIN:      "gwmin",
	GWMIN2:     "gwmin2",
	GWMAX:      "gwmax",
	GreedyBest: "greedy-best",
	Exact:      "exact",
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if s, ok := _algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("mwis.Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a CLI-style name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range _algorithmNames {
		if name == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("mwis: unknown algorithm %q (want one of gwmin, gwmin2, gwmax, greedy-best, exact)", s)
}

// Solve returns an independent subset of candidates in graph g that
// (heuristically or exactly, per alg) maximizes the total weight. Weights are
// indexed by vertex ID. Candidates with non-positive weight are never
// selected: a seller's preference (eq. (6)) is strict in total price, so a
// zero-price buyer never improves a coalition. The result is sorted
// ascending. Duplicate candidates are handled as one.
//
// Solve allocates fresh scratch per call; hot paths that solve repeatedly
// over the same graph should hold a Solver and reuse its buffers.
func Solve(alg Algorithm, g *graph.Graph, weights []float64, candidates []int) ([]int, error) {
	var s Solver
	return s.Solve(alg, g, weights, candidates)
}

// Solver runs the package's algorithms with reusable scratch buffers,
// eliminating the per-call allocations (alive marks, dedup sets, search
// order) that dominate the engine's coalition-formation hot path. Results
// are bit-identical to the package-level Solve. The zero value is ready to
// use; a Solver is not safe for concurrent use — create one per goroutine
// (the matching engine keeps one per seller).
type Solver struct {
	cands  []int      // cleaned candidate list
	alive  graph.Bits // alive mask for the greedy algorithms, cleared per call
	seen   []bool     // dedup marks, cleared per call
	order  []int      // exact: descending-weight search order
	suffix []float64  // exact: remaining-weight bounds
	cur    []int      // exact: current partial set
}

// Solve is the Solver counterpart of the package-level Solve: identical
// semantics and output, but scratch buffers are reused across calls. Only
// the returned set is freshly allocated (callers retain it).
func (s *Solver) Solve(alg Algorithm, g *graph.Graph, weights []float64, candidates []int) ([]int, error) {
	if len(weights) < g.N() {
		return nil, fmt.Errorf("mwis: %d weights for %d vertices", len(weights), g.N())
	}
	cands, err := s.cleanCandidates(g, weights, candidates)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, nil
	}
	var set []int
	switch alg {
	case GWMIN:
		set = s.gwmin(g, weights, cands, ratioGWMIN)
	case GWMIN2:
		set = s.gwmin(g, weights, cands, ratioGWMIN2)
	case GWMAX:
		set = s.gwmax(g, weights, cands)
	case GreedyBest:
		set = bestOf(weights,
			s.gwmin(g, weights, cands, ratioGWMIN),
			s.gwmin(g, weights, cands, ratioGWMIN2),
			s.gwmax(g, weights, cands),
		)
	case Exact:
		set = s.exact(g, weights, cands)
	default:
		return nil, fmt.Errorf("mwis: unsupported algorithm %v", alg)
	}
	sort.Ints(set)
	return set, nil
}

// Weight returns the total weight of the given vertex set.
func Weight(weights []float64, set []int) float64 {
	total := 0.0
	for _, v := range set {
		total += weights[v]
	}
	return total
}

// cleanCandidates validates, deduplicates and filters the candidate list
// into the solver's candidate scratch. The dedup marks are cleared before
// returning on every path, so the buffer is reusable immediately.
func (s *Solver) cleanCandidates(g *graph.Graph, weights []float64, candidates []int) ([]int, error) {
	if len(s.seen) < g.N() {
		s.seen = make([]bool, g.N())
	}
	out := s.cands[:0]
	var err error
	for _, v := range candidates {
		if v < 0 || v >= g.N() {
			err = fmt.Errorf("mwis: candidate %d out of range [0,%d)", v, g.N())
			break
		}
		if s.seen[v] {
			continue
		}
		s.seen[v] = true
		if weights[v] > 0 {
			out = append(out, v)
		}
	}
	for _, v := range candidates { // clear marks (only in-range vertices set)
		if v >= 0 && v < len(s.seen) {
			s.seen[v] = false
		}
	}
	if err != nil {
		return nil, err
	}
	sort.Ints(out)
	s.cands = out
	return out, nil
}

// aliveFor returns the alive mask sized for g, all clear. Callers must
// clear every bit they set before returning.
func (s *Solver) aliveFor(n int) graph.Bits {
	if words := graph.WordsFor(n); len(s.alive) < words {
		s.alive = make(graph.Bits, words)
	}
	return s.alive
}

// ratioFn scores an alive vertex; greater is better for selection.
type ratioFn func(g *graph.Graph, weights []float64, alive graph.Bits, v int) float64

func ratioGWMIN(g *graph.Graph, weights []float64, alive graph.Bits, v int) float64 {
	// Word-parallel induced degree: popcount(Row(v) AND alive).
	return weights[v] / float64(g.InducedDegreeMask(v, alive)+1)
}

func ratioGWMIN2(g *graph.Graph, weights []float64, alive graph.Bits, v int) float64 {
	closed := weights[v]
	// Sum over alive neighbors. Bit iteration over Row(v) AND alive visits
	// vertices in ascending ID order — the order graph.EachNeighbor
	// guarantees — so the float accumulation is bit-for-bit reproducible.
	row := g.Row(v)
	for i, w := range row {
		w &= alive[i]
		base := i << 6
		for w != 0 {
			u := base + trailingZeros(w)
			closed += weights[u]
			w &= w - 1
		}
	}
	// closed ≥ weights[v] > 0 for any selectable candidate.
	return weights[v] / closed
}

// gwmin implements the GWMIN family: repeatedly select the alive vertex with
// the best ratio, add it to the set, and delete its closed neighborhood —
// one ANDNOT word sweep against the selected vertex's adjacency row.
func (s *Solver) gwmin(g *graph.Graph, weights []float64, cands []int, ratio ratioFn) []int {
	alive := s.aliveFor(g.N())
	for _, v := range cands {
		alive.Set(v)
	}
	remaining := len(cands)
	set := make([]int, 0, len(cands))
	for remaining > 0 {
		best := -1
		bestRatio := 0.0
		for _, v := range cands { // ascending ID: ties keep the smaller ID
			if !alive.Get(v) {
				continue
			}
			r := ratio(g, weights, alive, v)
			if best == -1 || r > bestRatio {
				best, bestRatio = v, r
			}
		}
		set = append(set, best)
		alive.Clear(best)
		remaining--
		row := g.Row(best)
		remaining -= graph.AndCount(row, alive)
		alive.AndNot(row)
	}
	for _, v := range cands { // clear marks for the next call
		alive.Clear(v)
	}
	return set
}

// gwmax implements GWMAX: repeatedly delete the vertex minimizing
// w(v)/(d(v)(d(v)+1)) among alive vertices with at least one alive neighbor;
// when the alive-induced subgraph is edgeless, the survivors are the set.
func (s *Solver) gwmax(g *graph.Graph, weights []float64, cands []int) []int {
	alive := s.aliveFor(g.N())
	for _, v := range cands {
		alive.Set(v)
	}
	for {
		worst := -1
		worstRatio := 0.0
		for _, v := range cands {
			if !alive.Get(v) {
				continue
			}
			d := g.InducedDegreeMask(v, alive)
			if d == 0 {
				continue
			}
			r := weights[v] / float64(d*(d+1))
			if worst == -1 || r < worstRatio {
				worst, worstRatio = v, r
			}
		}
		if worst == -1 {
			break // edgeless: done
		}
		alive.Clear(worst)
	}
	set := make([]int, 0, len(cands))
	for _, v := range cands {
		if alive.Get(v) {
			set = append(set, v)
		}
		alive.Clear(v) // clear marks for the next call
	}
	return set
}

// bestOf returns the heaviest of the given sets, breaking ties toward the
// earliest argument (so the algorithm order above is the priority order).
func bestOf(weights []float64, sets ...[]int) []int {
	var best []int
	bestW := -1.0
	for _, s := range sets {
		if w := Weight(weights, s); w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// exact runs a branch-and-bound search over the candidates, ordered by
// descending weight so that good incumbents are found early. The bound is the
// incumbent-relative remaining-weight sum.
func (s *Solver) exact(g *graph.Graph, weights []float64, cands []int) []int {
	order := append(s.order[:0], cands...)
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	s.order = order
	// suffix[i] = total weight of order[i:], the loosest admissible bound.
	if cap(s.suffix) < len(order)+1 {
		s.suffix = make([]float64, len(order)+1)
	}
	suffix := s.suffix[:len(order)+1]
	suffix[len(order)] = 0
	for i := len(order) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + weights[order[i]]
	}

	var (
		best   []int
		bestW  float64
		cur    = s.cur[:0]
		curW   float64
		search func(i int)
	)
	search = func(i int) {
		if curW > bestW {
			bestW = curW
			best = append(best[:0], cur...)
		}
		if i == len(order) || curW+suffix[i] <= bestW {
			return
		}
		v := order[i]
		if !g.ConflictsWith(v, cur) {
			cur = append(cur, v)
			curW += weights[v]
			search(i + 1)
			cur = cur[:len(cur)-1]
			curW -= weights[v]
		}
		search(i + 1)
	}
	search(0)
	s.cur = cur[:0] // retain capacity for the next call
	return append([]int(nil), best...)
}
