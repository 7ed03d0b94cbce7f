// Package bitset provides the dense bitmap used for block-first hybrid
// scans (Section 2.3): attribute filtering produces a bitmask over row
// ids that the index scan consults to decide whether a vector is
// blocked.
package bitset

import "math/bits"

// Bitset is a fixed-capacity dense bit vector. The zero value is an
// empty bitset of capacity 0; use New for a sized one.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a bitset able to hold n bits, all clear.
func New(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Reset resizes b to n bits, all clear, reusing its storage when it is
// large enough — what lets a per-query bitmap live in a sync.Pool.
func (b *Bitset) Reset(n int) {
	nw := (n + 63) / 64
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	} else {
		b.words = b.words[:nw]
		clear(b.words)
	}
	b.n = n
}

// Words exposes the backing words (bit i is words[i>>6]>>(i&63)&1) so
// column-at-a-time producers and word-walking scans can work on 64
// rows per load. Writers must leave the bits at and beyond Len clear.
func (b *Bitset) Words() []uint64 { return b.words }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set. Out-of-range bits read as false,
// which lets a filter bitmap built over a snapshot be consulted safely
// while the collection grows.
func (b *Bitset) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// SetAll sets every bit in [0, Len).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trimTail()
}

// ClearAll clears every bit.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// And intersects other into b. Both must have equal capacity.
func (b *Bitset) And(other *Bitset) {
	for i := range b.words {
		b.words[i] &= other.words[i]
	}
}

// Or unions other into b. Both must have equal capacity.
func (b *Bitset) Or(other *Bitset) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// AndNot removes other's bits from b. other may be shorter than b (a
// deletion mask frozen before later appends): bits it does not cover
// read as clear, exactly as Test reports them.
func (b *Bitset) AndNot(other *Bitset) {
	n := min(len(b.words), len(other.words))
	for i, w := range other.words[:n] {
		b.words[i] &^= w
	}
}

// Not complements b in place.
func (b *Bitset) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trimTail()
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// ForEach calls fn for every set bit in ascending order; returning
// false stops the iteration early.
func (b *Bitset) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the smallest set bit >= i, or -1 if none.
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i >> 6
	w := b.words[wi] >> (uint(i) & 63)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*64 + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// trimTail clears bits beyond n in the final word so Count stays exact.
func (b *Bitset) trimTail() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}
