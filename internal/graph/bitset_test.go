package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// randomGraph builds a G(n, p) graph and returns it alongside a plain
// map-of-sets reference adjacency built through the same AddEdge calls.
func randomGraph(t *testing.T, r *rand.Rand, n int, p float64) (*Graph, []map[int]bool) {
	t.Helper()
	g := New(n)
	ref := make([]map[int]bool, n)
	for i := range ref {
		ref[i] = make(map[int]bool)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
				}
				ref[u][v], ref[v][u] = true, true
			}
		}
	}
	return g, ref
}

// TestBitsetSliceEquivalence is the metamorphic guard for the bitset
// migration: on random graphs, the word-parallel view (Row, ConflictsMask,
// InducedDegreeMask, IsIndependentMask) and the slice view (Neighbors,
// EachNeighbor, ConflictsWith, InducedDegree, IsIndependent) must agree
// everywhere, and Neighbors must stay sorted ascending — the order the
// engine's float sums depend on.
func TestBitsetSliceEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// Sizes straddle the 64-bit word boundary: sub-word, exact words, and
	// word+remainder graphs all exercise different masking paths.
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			g, ref := randomGraph(t, r, n, p)
			edges := 0
			for v := 0; v < n; v++ {
				nbrs := g.Neighbors(v)
				if !sort.IntsAreSorted(nbrs) {
					t.Fatalf("n=%d p=%g: Neighbors(%d) not sorted: %v", n, p, v, nbrs)
				}
				if len(nbrs) != len(ref[v]) || len(nbrs) != g.Degree(v) {
					t.Fatalf("n=%d p=%g: Degree(%d)=%d, %d neighbors, ref %d", n, p, v, g.Degree(v), len(nbrs), len(ref[v]))
				}
				edges += len(nbrs)
				// Row bits must be exactly the reference adjacency set, and
				// ForEach must visit them ascending.
				row := g.Row(v)
				if got := row.Count(); got != len(ref[v]) {
					t.Fatalf("n=%d p=%g: Row(%d) popcount %d, want %d", n, p, v, got, len(ref[v]))
				}
				prev := -1
				row.ForEach(func(u int) bool {
					if u <= prev {
						t.Fatalf("Row(%d).ForEach out of order: %d after %d", v, u, prev)
					}
					prev = u
					if !ref[v][u] {
						t.Fatalf("Row(%d) has spurious bit %d", v, u)
					}
					return true
				})
				for u := 0; u < n; u++ {
					if g.HasEdge(v, u) != ref[v][u] {
						t.Fatalf("HasEdge(%d,%d)=%v, ref %v", v, u, g.HasEdge(v, u), ref[v][u])
					}
				}
			}
			if edges != 2*g.M() {
				t.Fatalf("n=%d p=%g: M()=%d but degrees sum to %d", n, p, g.M(), edges)
			}

			// Random subsets: mask kernels vs slice kernels.
			for trial := 0; trial < 20; trial++ {
				var set []int
				mask := NewBits(n)
				in := make([]bool, n)
				for v := 0; v < n; v++ {
					if r.Intn(3) == 0 {
						set = append(set, v)
						mask.Set(v)
						in[v] = true
					}
				}
				if got, want := g.IsIndependentMask(set, mask), g.IsIndependent(set); got != want {
					t.Fatalf("IsIndependentMask=%v, IsIndependent=%v on %v", got, want, set)
				}
				for v := 0; v < n; v++ {
					if got, want := g.ConflictsMask(v, mask), g.ConflictsWith(v, set); got != want {
						t.Fatalf("ConflictsMask(%d)=%v, ConflictsWith=%v", v, got, want)
					}
					if got, want := g.InducedDegreeMask(v, mask), g.InducedDegree(v, in); got != want {
						t.Fatalf("InducedDegreeMask(%d)=%d, InducedDegree=%d", v, got, want)
					}
				}
			}
		}
	}
}

// TestUnionRowsClosure pins the dirty-neighborhood kernel on the shapes the
// online engine's closure must handle: isolated vertices expand to nothing,
// a clique seed saturates to the whole clique, and a seed bit set then
// cleared (back-to-back add/remove of the same buyer) contributes nothing.
func TestUnionRowsClosure(t *testing.T) {
	// 0-1-2 path, 3 isolated, 4-5-6-7 clique.
	g := New(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {4, 5}, {4, 6}, {4, 7}, {5, 6}, {5, 7}, {6, 7}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	closure := func(seedVerts ...int) []int {
		seed := NewBits(8)
		out := NewBits(8)
		for _, v := range seedVerts {
			seed.Set(v)
			out.Set(v)
		}
		g.UnionRowsInto(seed, out)
		var got []int
		out.ForEach(func(v int) bool { got = append(got, v); return true })
		return got
	}
	eq := func(got, want []int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	if got := closure(3); !eq(got, []int{3}) {
		t.Errorf("isolated vertex closure = %v, want [3]", got)
	}
	if got := closure(4); !eq(got, []int{4, 5, 6, 7}) {
		t.Errorf("clique member closure = %v, want the whole clique", got)
	}
	if got := closure(1); !eq(got, []int{0, 1, 2}) {
		t.Errorf("path center closure = %v, want [0 1 2]", got)
	}
	if got := closure(); got != nil {
		t.Errorf("empty seed closure = %v, want empty", got)
	}

	// Back-to-back add/remove of the same vertex: a Set immediately undone
	// by Clear must leave the seed — and hence the closure — untouched.
	seed := NewBits(8)
	seed.Set(1)
	seed.Set(4)
	seed.Clear(4)
	out := NewBits(8)
	out.Or(seed)
	g.UnionRowsInto(seed, out)
	var got []int
	out.ForEach(func(v int) bool { got = append(got, v); return true })
	if !eq(got, []int{0, 1, 2}) {
		t.Errorf("set-then-clear seed closure = %v, want [0 1 2]", got)
	}

	// A seed wider than the graph (buyer universe larger than this channel's
	// vertex set) must not read past the graph's rows.
	wide := NewBits(1024)
	wide.Set(1)
	wide.Set(900)
	wideOut := NewBits(1024)
	g.UnionRowsInto(wide, wideOut)
	var wideGot []int
	wideOut.ForEach(func(v int) bool { wideGot = append(wideGot, v); return true })
	if !eq(wideGot, []int{0, 2}) {
		t.Errorf("wide seed closure = %v, want [0 2]", wideGot)
	}
}

// TestBitsOps covers the Bits primitives the kernels are built from,
// including the 64-bit word boundaries.
func TestBitsOps(t *testing.T) {
	b := NewBits(130)
	for _, v := range []int{0, 63, 64, 127, 128, 129} {
		if b.Get(v) {
			t.Fatalf("fresh bitset has bit %d", v)
		}
		b.Set(v)
		if !b.Get(v) {
			t.Fatalf("Set(%d) not visible", v)
		}
	}
	if got := b.Count(); got != 6 {
		t.Fatalf("Count=%d, want 6", got)
	}
	if !b.Any() {
		t.Fatal("Any=false on non-empty bitset")
	}
	other := NewBits(130)
	other.Set(63)
	other.Set(64)
	if got := AndCount(b, other); got != 2 {
		t.Fatalf("AndCount=%d, want 2", got)
	}
	if !AndAny(b, other) {
		t.Fatal("AndAny=false with shared bits")
	}
	b.AndNot(other)
	if b.Get(63) || b.Get(64) || !b.Get(127) {
		t.Fatal("AndNot cleared the wrong bits")
	}
	b.Reset()
	if b.Any() {
		t.Fatal("Reset left bits set")
	}
	if b.Get(-1) || b.Get(1<<20) {
		t.Fatal("out-of-range Get must read unset")
	}
}
