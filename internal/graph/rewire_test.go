package graph

import (
	"reflect"
	"testing"

	"specmatch/internal/xrand"
)

// rebuildWith reconstructs g's edge set from scratch with v's neighborhood
// replaced by nbrs — the naive reference RewireVertex must agree with.
func rebuildWith(g *Graph, v int, nbrs []int) *Graph {
	want := New(g.N())
	for _, e := range g.Edges() {
		if e[0] == v || e[1] == v {
			continue
		}
		if err := want.AddEdge(e[0], e[1]); err != nil {
			panic(err)
		}
	}
	for _, u := range nbrs {
		if err := want.AddEdge(v, u); err != nil {
			panic(err)
		}
	}
	return want
}

// rowOf returns the adjacency row on n vertices with exactly nbrs set.
func rowOf(n int, nbrs []int) Bits {
	row := NewBits(n)
	for _, u := range nbrs {
		row.Set(u)
	}
	return row
}

// sameGraph checks rows, neighbor iteration, edge list and edge count.
func sameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.M() != want.M() {
		t.Fatalf("edge count %d, want %d", got.M(), want.M())
	}
	if !reflect.DeepEqual(got.Edges(), want.Edges()) {
		t.Fatalf("edges %v, want %v", got.Edges(), want.Edges())
	}
	for v := 0; v < got.N(); v++ {
		if !reflect.DeepEqual(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("neighbors(%d) = %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
		}
		gr, wr := got.Row(v), want.Row(v)
		for w := range gr {
			if gr[w] != wr[w] {
				t.Fatalf("row(%d) word %d = %x, want %x", v, w, gr[w], wr[w])
			}
		}
	}
}

// TestRewireVertexAgainstRebuild drives random rewire sequences on random
// graphs and checks the in-place kernel against a from-scratch rebuild after
// every step: bitset rows, neighbor order, edge lists and counts all agree.
func TestRewireVertexAgainstRebuild(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := xrand.New(seed)
		n := 5 + r.Intn(80)
		g := New(n)
		for k := 0; k < n*2; k++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		for step := 0; step < 40; step++ {
			v := r.Intn(n)
			var nbrs []int
			for u := 0; u < n; u++ {
				if u != v && r.Float64() < 0.15 {
					nbrs = append(nbrs, u)
				}
			}
			want := rebuildWith(g, v, nbrs)
			if _, err := g.RewireVertex(v, rowOf(n, nbrs)); err != nil {
				t.Fatal(err)
			}
			sameGraph(t, g, want)
		}
	}
}

// TestRewireVertexOutAndBack moves a vertex out (empty neighborhood) and
// back (original neighborhood) and checks the original rows are restored
// exactly, for every vertex of a random graph.
func TestRewireVertexOutAndBack(t *testing.T) {
	r := xrand.New(11)
	n := 70
	g := New(n)
	for k := 0; k < 3*n; k++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			if err := g.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := g.Clone()
	for v := 0; v < n; v++ {
		orig := g.Neighbors(v)
		changed, err := g.RewireVertex(v, NewBits(n))
		if err != nil {
			t.Fatal(err)
		}
		if changed != (len(orig) > 0) {
			t.Fatalf("vertex %d: rewire-to-empty changed=%v with %d neighbors", v, changed, len(orig))
		}
		if g.Degree(v) != 0 {
			t.Fatalf("vertex %d: degree %d after move-out", v, g.Degree(v))
		}
		if _, err := g.RewireVertex(v, rowOf(n, orig)); err != nil {
			t.Fatal(err)
		}
	}
	sameGraph(t, g, before)
}

// TestRewireVertexNoChange pins the changed=false fast path: rewiring to the
// current neighborhood touches nothing.
func TestRewireVertexNoChange(t *testing.T) {
	g := New(6)
	for _, e := range [][2]int{{0, 1}, {0, 3}, {2, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := g.RewireVertex(0, rowOf(6, []int{1, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("rewire to identical neighborhood reported a change")
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("neighbors(0) = %v after no-op rewire", got)
	}
}

// TestRewireVertexErrors pins the atomic error contract: bad inputs leave
// the graph untouched.
func TestRewireVertexErrors(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	before := g.Clone()
	cases := []struct {
		v   int
		row Bits
	}{
		{-1, rowOf(4, nil)},
		{4, rowOf(4, nil)},
		{0, Bits{1 << 4}},          // neighbor 4 >= n
		{0, Bits{1 << 63}},         // far tail bit
		{0, nil},                   // short row
		{0, Bits{1 << 2, 0}},       // long row
		{0, rowOf(4, []int{0})},    // self-loop
		{2, rowOf(4, []int{3, 2})}, // self-loop beside a valid neighbor
	}
	for _, c := range cases {
		if _, err := g.RewireVertex(c.v, c.row); err == nil {
			t.Errorf("RewireVertex(%d, %x): no error", c.v, c.row)
		}
		sameGraph(t, g, before)
	}
}
