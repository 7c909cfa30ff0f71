package graph

import (
	"reflect"
	"testing"
)

// opReader hands out a fuzz program's bytes; reads past the end yield 0.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) more() bool { return r.pos < len(r.data) }

func (r *opReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// FuzzGraphOps runs a byte program of AddEdge, RewireVertex and bad-input
// ops against a Graph and a naive [][]bool reference, and checks the whole
// graph against the reference after every op. The first byte picks n (up to
// 130, so programs cover sub-word, exact-word and word+remainder rows); each
// later op byte picks one of:
//
//	0: AddEdge(u, v) with u, v in [-1, n] — out-of-range and self-loop
//	   inputs must be rejected
//	1: RewireVertex(v, row) with row built from a count byte and that many
//	   vertex bytes — a self bit must be rejected
//	2: RewireVertex with a malformed input: v out of range, a row one word
//	   too short or too long, or a bit at or above n
//	3: EachNeighbor(v) whose callback stops it after k in [1, 4] calls
//
// A rejected op must leave g untouched: the reference only changes on
// success, and the full check runs after every op.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 0, 2, 3, 1, 1, 2, 3, 4, 3, 1, 1})
	f.Add([]byte{64, 0, 0, 63, 1, 63, 3, 0, 1, 2, 2, 0, 2, 1, 2, 2, 3, 63, 1})
	f.Add([]byte{65, 0, 0, 64, 1, 64, 2, 0, 1, 2, 2, 2, 7, 0, 0, 0, 65, 66})
	f.Add([]byte{129, 1, 7, 4, 7, 100, 128, 0, 2, 3, 1, 1, 2, 0, 0, 3, 7, 2})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 1, 0, 2, 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		n := 1 + r.next()%130
		g := New(n)
		ref := make([][]bool, n)
		for v := range ref {
			ref[v] = make([]bool, n)
		}
		for op := 0; op < 64 && r.more(); op++ {
			switch r.next() % 4 {
			case 0:
				u, v := r.next()%(n+2)-1, r.next()%(n+2)-1
				err := g.AddEdge(u, v)
				if valid := u >= 0 && u < n && v >= 0 && v < n && u != v; valid != (err == nil) {
					t.Fatalf("op %d: AddEdge(%d,%d) err = %v, want valid=%v", op, u, v, err, valid)
				}
				if err == nil {
					ref[u][v], ref[v][u] = true, true
				}
			case 1:
				v := r.next() % n
				row := NewBits(n)
				want := make([]bool, n)
				for c := r.next() % 8; c > 0; c-- {
					u := r.next() % n
					row.Set(u)
					want[u] = true
				}
				changed, err := g.RewireVertex(v, row)
				if want[v] != (err != nil) {
					t.Fatalf("op %d: RewireVertex(%d) self bit %v, err = %v", op, v, want[v], err)
				}
				if err != nil {
					break
				}
				if !reflect.DeepEqual(ref[v], want) != changed {
					t.Fatalf("op %d: RewireVertex(%d) changed = %v, reference disagrees", op, v, changed)
				}
				for u := range want {
					ref[v][u], ref[u][v] = want[u], want[u]
				}
			case 2:
				v, row := 0, NewBits(n)
				switch r.next() % 4 {
				case 0:
					v = n
					if r.next()%2 == 1 {
						v = -1
					}
				case 1:
					row = row[:len(row)-1]
				case 2:
					row = append(row, 0)
				case 3:
					if n%64 == 0 {
						row = append(row, 1) // no tail bits to set: a long row instead
						break
					}
					row[len(row)-1] |= 1 << uint(n%64+r.next()%(64-n%64))
				}
				if _, err := g.RewireVertex(v, row); err == nil {
					t.Fatalf("op %d: RewireVertex(%d, %x) accepted a malformed input", op, v, row)
				}
			case 3:
				v, k := r.next()%n, 1+r.next()%4
				var want, got []int
				for u := 0; u < n && len(want) < k; u++ {
					if ref[v][u] {
						want = append(want, u)
					}
				}
				g.EachNeighbor(v, func(u int) bool {
					got = append(got, u)
					return len(got) < k
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: EachNeighbor(%d) stopping after %d visited %v, want %v", op, v, k, got, want)
				}
			}
			checkAgainstRef(t, g, ref)
		}
	})
}

// checkAgainstRef requires g to equal the reference adjacency matrix in
// every observable: rows (no diagonal bit, no bit at or above n, symmetric),
// Neighbors (ascending, nil when empty), Degree, M and Edges.
func checkAgainstRef(t *testing.T, g *Graph, ref [][]bool) {
	t.Helper()
	n := len(ref)
	var edges [][2]int
	m := 0
	for v := 0; v < n; v++ {
		row := g.Row(v)
		if len(row) != WordsFor(n) {
			t.Fatalf("Row(%d) has %d words, want %d", v, len(row), WordsFor(n))
		}
		if tail := uint(n) % 64; tail != 0 && row[len(row)-1]>>tail != 0 {
			t.Fatalf("Row(%d) has bits at or above n=%d: %x", v, n, row[len(row)-1])
		}
		if row.Get(v) {
			t.Fatalf("Row(%d) has its diagonal bit", v)
		}
		var want []int
		for u := 0; u < n; u++ {
			if row.Get(u) != ref[v][u] {
				t.Fatalf("Row(%d) bit %d = %v, reference %v", v, u, row.Get(u), ref[v][u])
			}
			if row.Get(u) != g.Row(u).Get(v) {
				t.Fatalf("rows %d and %d disagree on their edge", v, u)
			}
			if ref[v][u] {
				want = append(want, u)
				if v < u {
					edges = append(edges, [2]int{v, u})
					m++
				}
			}
		}
		if got := g.Neighbors(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, want)
		}
		if g.Degree(v) != len(want) {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), len(want))
		}
	}
	if g.M() != m {
		t.Fatalf("M() = %d, want %d", g.M(), m)
	}
	if got := g.Edges(); len(got) != len(edges) || (len(edges) > 0 && !reflect.DeepEqual(got, edges)) {
		t.Fatalf("Edges() = %v, want %v", got, edges)
	}
}
