package hypercube

import (
	"fmt"
	"strings"
)

// Label is a variable-length supernode label (b₁,…,b_ℓ) as used by the
// split/merge scheme of Section 6. Bit bᵢ is stored at position i−1.
// The zero Label is the root label of dimension 0.
type Label struct {
	bits uint64
	len  int
}

// MakeLabel builds a label from the low n bits of bits.
func MakeLabel(bits uint64, n int) Label {
	if n < 0 || n > 62 {
		panic(fmt.Sprintf("hypercube: label length %d out of range", n))
	}
	return Label{bits: bits & mask(n), len: n}
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Dim returns the dimension d(x), the length ℓ of the label.
func (l Label) Dim() int { return l.len }

// Bits returns the packed label bits.
func (l Label) Bits() uint64 { return l.bits }

// Bit returns coordinate i (1-indexed).
func (l Label) Bit(i int) int {
	if i < 1 || i > l.len {
		panic(fmt.Sprintf("hypercube: label bit %d of %d", i, l.len))
	}
	return int(l.bits>>(i-1)) & 1
}

// Child returns the label extended by bit b: (b₁,…,b_ℓ,b). This is the
// split operation: x splits into x.Child(0) and x.Child(1).
func (l Label) Child(b int) Label {
	return Label{bits: l.bits | uint64(b&1)<<l.len, len: l.len + 1}
}

// Parent returns (b₁,…,b_{ℓ−1}); merging x with its sibling yields the
// parent label.
func (l Label) Parent() Label {
	if l.len == 0 {
		panic("hypercube: root label has no parent")
	}
	return Label{bits: l.bits & mask(l.len-1), len: l.len - 1}
}

// Sibling returns (b₁,…,1−b_ℓ).
func (l Label) Sibling() Label {
	if l.len == 0 {
		panic("hypercube: root label has no sibling")
	}
	return Label{bits: l.bits ^ (1 << (l.len - 1)), len: l.len}
}

// IsAncestorOf reports whether l is a proper prefix of m.
func (l Label) IsAncestorOf(m Label) bool {
	return l.len < m.len && (m.bits&mask(l.len)) == l.bits
}

// Equal reports label equality.
func (l Label) Equal(m Label) bool { return l.len == m.len && l.bits == m.bits }

// Less orders labels by (dimension, bits); used for deterministic
// iteration over supernode sets.
func (l Label) Less(m Label) bool {
	if l.len != m.len {
		return l.len < m.len
	}
	return l.bits < m.bits
}

// String renders the label as a bit string, e.g. "0110"; the root label
// renders as "ε".
func (l Label) String() string {
	if l.len == 0 {
		return "ε"
	}
	var b strings.Builder
	for i := 1; i <= l.len; i++ {
		b.WriteByte(byte('0' + l.Bit(i)))
	}
	return b.String()
}
