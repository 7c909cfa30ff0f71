package graph

import "math/bits"

// Bits is a fixed-capacity bitset over vertex IDs, the word-parallel
// representation behind the package's adjacency rows and the scratch masks
// the MWIS solvers and the incremental repair engine operate on. A Bits of
// length WordsFor(n) covers vertices [0, n); all operations are plain word
// loops so the compiler can keep them branch-light.
//
// Iteration order is always ascending vertex ID (word by word, lowest set
// bit first). That order is part of the contract: every Graph neighbor
// iteration is a ForEach over a row, and floating-point neighborhood sums
// must be bit-for-bit reproducible, so no change here may reorder them.
type Bits []uint64

const wordShift = 6
const wordMask = 63

// WordsFor returns the number of 64-bit words needed to cover n vertices.
func WordsFor(n int) int { return (n + wordMask) >> wordShift }

// NewBits returns an all-zero bitset covering vertices [0, n).
func NewBits(n int) Bits { return make(Bits, WordsFor(n)) }

// Set sets bit v. The caller guarantees v is in range.
func (b Bits) Set(v int) { b[v>>wordShift] |= 1 << (uint(v) & wordMask) }

// Clear clears bit v. The caller guarantees v is in range.
func (b Bits) Clear(v int) { b[v>>wordShift] &^= 1 << (uint(v) & wordMask) }

// Get reports whether bit v is set; out-of-range v reads as unset.
func (b Bits) Get(v int) bool {
	w := v >> wordShift
	if w < 0 || w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(v)&wordMask)) != 0
}

// Reset clears every bit.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Copy overwrites b with src (same length required by the caller).
func (b Bits) Copy(src Bits) { copy(b, src) }

// Or sets b |= x.
func (b Bits) Or(x Bits) {
	for i := range x {
		b[i] |= x[i]
	}
}

// AndNot clears from b every bit set in x (b &^= x).
func (b Bits) AndNot(x Bits) {
	for i := range x {
		b[i] &^= x[i]
	}
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (b Bits) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// ForEach calls fn for every set bit in ascending order, stopping early if
// fn returns false.
func (b Bits) ForEach(fn func(v int) bool) {
	for i, w := range b {
		base := i << wordShift
		for w != 0 {
			v := base + bits.TrailingZeros64(w)
			if !fn(v) {
				return
			}
			w &= w - 1
		}
	}
}

// AndCount returns popcount(a AND b), truncated to the shorter operand.
func AndCount(a, b Bits) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(a[i] & b[i])
	}
	return c
}

// AndAny reports whether a AND b has any set bit — the word-parallel
// "does this vertex conflict with this set" kernel.
func AndAny(a, b Bits) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}
