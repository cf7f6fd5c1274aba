// Package bitset provides a dense, fixed-capacity bitmap used as a
// transaction-id list during frequent itemset mining. Support counting for
// an itemset reduces to intersecting the bitmaps of its items and counting
// the surviving bits, which is the hot loop of the Apriori miner.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitmap. The zero value is unusable; create one
// with New. Bits beyond the capacity passed to New are never set, so
// Count and intersection results are exact.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a Set able to hold bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Set(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Assign sets bit i to v. It panics if i is out of range. It writes the
// bit without branching on v, so a loop storing unpredictable flags pays
// no mispredicted branches, and it is small enough to inline.
func (s *Set) Assign(i int, v bool) {
	if uint(i) >= uint(s.n) {
		panic("bitset: Assign index out of range")
	}
	var b uint64
	if v {
		b = 1
	}
	sh := uint(i) % wordBits
	w := &s.words[uint(i)/wordBits]
	*w = *w&^(1<<sh) | b<<sh
}

// Clear clears bit i. It panics if i is out of range.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Clear(%d) out of range [0,%d)", i, s.n))
	}
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set. It panics if i is out of range.
func (s *Set) Test(i int) bool {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: Test(%d) out of range [0,%d)", i, s.n))
	}
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Reset clears every bit, keeping the capacity.
func (s *Set) Reset() {
	clear(s.words)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// IntersectInto stores a AND b into dst. All three sets must share the same
// capacity; dst may alias a or b. It returns dst.
func IntersectInto(dst, a, b *Set) *Set {
	if a.n != b.n || dst.n != a.n {
		panic("bitset: IntersectInto capacity mismatch")
	}
	for i := range dst.words {
		dst.words[i] = a.words[i] & b.words[i]
	}
	return dst
}

// And returns a new set holding a AND b.
func And(a, b *Set) *Set {
	return IntersectInto(New(a.n), a, b)
}

// AndCount returns the population count of a AND b without allocating.
func AndCount(a, b *Set) int {
	if a.n != b.n {
		panic("bitset: AndCount capacity mismatch")
	}
	c := 0
	for i, w := range a.words {
		c += bits.OnesCount64(w & b.words[i])
	}
	return c
}

// Or returns a new set holding a OR b.
func Or(a, b *Set) *Set {
	if a.n != b.n {
		panic("bitset: Or capacity mismatch")
	}
	out := New(a.n)
	for i := range out.words {
		out.words[i] = a.words[i] | b.words[i]
	}
	return out
}

// ForEach calls fn with the index of every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*wordBits + tz)
			w &= w - 1
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1
// when there is none. Looping i = s.NextSet(i+1) from s.NextSet(0)
// visits the set bits in ascending order without a callback.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if w := s.words[wi]; w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Indices returns the indices of all set bits in ascending order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as a compact list of indices, for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
