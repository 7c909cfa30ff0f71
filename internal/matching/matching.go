// Package matching defines the matching function µ of Definition 1 and the
// coalition preference relations of eqs. (5)–(6), the vocabulary shared by
// the matching engine (internal/core), the optimal baseline
// (internal/optimal) and the stability checkers (internal/stability).
//
// A spectrum coalition is a seller together with the buyers matched to her.
// Peer effects enter through interference: a buyer in a coalition obtains her
// full channel utility b_{i,j} if none of her interfering neighbors share the
// coalition, and zero utility otherwise (§III-A).
//
// Coalitions are stored as one bitset over buyers per seller, so membership
// tests are bit probes, iteration is word-parallel and always ascending, and
// interference screening against an adjacency row from package graph is a
// single AND-any sweep.
package matching

import (
	"fmt"

	"specmatch/internal/graph"
	"specmatch/internal/market"
)

// Matching is the function µ: buyers map to at most one seller, sellers to a
// set of buyers. The zero value is not usable; construct with New.
type Matching struct {
	sellerOf []int        // per buyer: seller index or market.Unmatched
	members  []graph.Bits // per seller: matched buyer set, one bit per buyer
	counts   []int        // per seller: |µ(i)|
}

// New returns an empty matching for a market with m sellers and n buyers.
func New(m, n int) *Matching {
	sellerOf := make([]int, n)
	for j := range sellerOf {
		sellerOf[j] = market.Unmatched
	}
	members := make([]graph.Bits, m)
	words := graph.WordsFor(n)
	backing := make(graph.Bits, m*words)
	for i := range members {
		members[i] = backing[i*words : (i+1)*words]
	}
	return &Matching{sellerOf: sellerOf, members: members, counts: make([]int, m)}
}

// M returns the number of sellers.
func (mu *Matching) M() int { return len(mu.members) }

// N returns the number of buyers.
func (mu *Matching) N() int { return len(mu.sellerOf) }

// SellerOf returns the seller buyer j is matched to, or market.Unmatched.
func (mu *Matching) SellerOf(j int) int { return mu.sellerOf[j] }

// IsMatched reports whether buyer j holds a channel.
func (mu *Matching) IsMatched(j int) bool { return mu.sellerOf[j] != market.Unmatched }

// Members returns µ(i) as a bitset over buyers. The returned slice aliases
// the matching's storage — callers must treat it as read-only, and it is
// invalidated in content (not shape) by Assign/Unassign. It is the kernel
// input for word-parallel screening: buyer j interferes with µ(i) on channel
// i iff AndAny(g.Row(j), mu.Members(i)).
func (mu *Matching) Members(i int) graph.Bits { return mu.members[i] }

// Coalition returns µ(i), the buyers matched to seller i, sorted ascending.
func (mu *Matching) Coalition(i int) []int {
	out := make([]int, 0, mu.counts[i])
	mu.members[i].ForEach(func(j int) bool {
		out = append(out, j)
		return true
	})
	return out
}

// CoalitionSize returns |µ(i)| without allocating.
func (mu *Matching) CoalitionSize(i int) int { return mu.counts[i] }

// Contains reports whether buyer j ∈ µ(i).
func (mu *Matching) Contains(i, j int) bool {
	return mu.members[i].Get(j)
}

// EachMember calls fn for every buyer in µ(i) in ascending order, stopping
// early if fn returns false. It performs no allocation.
func (mu *Matching) EachMember(i int, fn func(j int) bool) {
	mu.members[i].ForEach(fn)
}

// Assign matches buyer j to seller i, detaching j from any previous seller.
func (mu *Matching) Assign(i, j int) error {
	if i < 0 || i >= mu.M() {
		return fmt.Errorf("matching: seller %d out of range [0,%d)", i, mu.M())
	}
	if j < 0 || j >= mu.N() {
		return fmt.Errorf("matching: buyer %d out of range [0,%d)", j, mu.N())
	}
	mu.Unassign(j)
	mu.sellerOf[j] = i
	mu.members[i].Set(j)
	mu.counts[i]++
	return nil
}

// Unassign detaches buyer j from her seller, if any.
func (mu *Matching) Unassign(j int) {
	if prev := mu.sellerOf[j]; prev != market.Unmatched {
		mu.members[prev].Clear(j)
		mu.counts[prev]--
		mu.sellerOf[j] = market.Unmatched
	}
}

// Clone returns a deep copy of the matching.
func (mu *Matching) Clone() *Matching {
	c := New(mu.M(), mu.N())
	copy(c.sellerOf, mu.sellerOf)
	for i, set := range mu.members {
		c.members[i].Copy(set)
	}
	copy(c.counts, mu.counts)
	return c
}

// Equal reports whether two matchings assign every buyer identically.
func (mu *Matching) Equal(other *Matching) bool {
	if mu.N() != other.N() || mu.M() != other.M() {
		return false
	}
	for j, s := range mu.sellerOf {
		if other.sellerOf[j] != s {
			return false
		}
	}
	return true
}

// MatchedCount returns the number of matched buyers.
func (mu *Matching) MatchedCount() int {
	count := 0
	for _, c := range mu.counts {
		count += c
	}
	return count
}

// Validate checks the bidirectional consistency invariant of Definition 1:
// µ(j) = {i} iff j ∈ µ(i).
func (mu *Matching) Validate() error {
	for j, i := range mu.sellerOf {
		if i == market.Unmatched {
			continue
		}
		if i < 0 || i >= mu.M() {
			return fmt.Errorf("matching: buyer %d matched to out-of-range seller %d", j, i)
		}
		if !mu.Contains(i, j) {
			return fmt.Errorf("matching: buyer %d claims seller %d but is not in her coalition", j, i)
		}
	}
	for i := range mu.members {
		count := 0
		var bad error
		mu.members[i].ForEach(func(j int) bool {
			count++
			if j >= mu.N() || mu.sellerOf[j] != i {
				bad = fmt.Errorf("matching: seller %d lists buyer %d whose seller is %d", i, j, mu.sellerOf[j])
				return false
			}
			return true
		})
		if bad != nil {
			return bad
		}
		if count != mu.counts[i] {
			return fmt.Errorf("matching: seller %d count %d, bitset has %d members", i, mu.counts[i], count)
		}
	}
	return nil
}

// String renders the matching compactly, e.g. "µ(0)={1,3} µ(1)={}".
func (mu *Matching) String() string {
	out := ""
	for i := 0; i < mu.M(); i++ {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("µ(%d)=%v", i, mu.Coalition(i))
	}
	return out
}
