// Package hypercube implements the hypercube topologies of the paper:
// the binary d-dimensional hypercube of Section 2.2 (the supernode
// topology of Section 5), the d-dimensional k-ary hypercube of
// Definition 1 (used by the robust DHT of Section 7.2), and the
// variable-length supernode labels needed for the split/merge scheme of
// Section 6.
package hypercube

import "fmt"

// Vertex is a binary hypercube vertex: the d-tuple (b₁,…,b_d) encoded
// with b_i in bit i-1.
type Vertex uint64

// N returns the number of vertices of the d-dimensional binary cube.
func N(d int) int { return 1 << d }

// Neighbor returns n_i(v): v with coordinate i (1-indexed, as in the
// paper) flipped.
func Neighbor(v Vertex, i int) Vertex {
	return v ^ (1 << (i - 1))
}

// KAry is the d-dimensional k-ary hypercube of Definition 1:
// V = {0,…,k−1}^d, with an edge between tuples that differ in exactly
// one coordinate. It has k^d vertices, degree (k−1)·d, and diameter d.
type KAry struct {
	K, D int
	pow  []int // pow[i] = k^i
	// For power-of-two k, coordinates are bit fields: coordinate i
	// occupies log2k bits starting at bit i·log2k. Shifts and masks
	// replace the division — the sampling hot loops call Coord and
	// WithCoord per message, where a variable-divisor divide is ~20×
	// the cost of a shift. log2k is 0 for other k (k = 1 is invalid,
	// so the flag doubles as "k is a power of two").
	log2k uint
}

// NewKAry returns the d-dimensional k-ary hypercube descriptor.
func NewKAry(k, d int) *KAry {
	if k < 2 || d < 1 {
		panic(fmt.Sprintf("hypercube: invalid k-ary cube k=%d d=%d", k, d))
	}
	pow := make([]int, d+1)
	pow[0] = 1
	for i := 1; i <= d; i++ {
		pow[i] = pow[i-1] * k
	}
	c := &KAry{K: k, D: d, pow: pow}
	if k&(k-1) == 0 {
		for v := k; v > 1; v >>= 1 {
			c.log2k++
		}
	}
	return c
}

// N returns k^d.
func (c *KAry) N() int { return c.pow[c.D] }

// Degree returns (k−1)·d.
func (c *KAry) Degree() int { return (c.K - 1) * c.D }

// Coord returns coordinate i (0-indexed) of vertex v.
func (c *KAry) Coord(v, i int) int {
	if c.log2k != 0 {
		return v >> (uint(i) * c.log2k) & (c.K - 1)
	}
	return v / c.pow[i] % c.K
}

// WithCoord returns v with coordinate i set to val.
func (c *KAry) WithCoord(v, i, val int) int {
	if c.log2k != 0 {
		s := uint(i) * c.log2k
		return v&^((c.K-1)<<s) | val<<s
	}
	old := c.Coord(v, i)
	return v + (val-old)*c.pow[i]
}

// Neighbors returns all (k−1)·d neighbors of v.
func (c *KAry) Neighbors(v int) []int {
	out := make([]int, 0, c.Degree())
	for i := 0; i < c.D; i++ {
		cur := c.Coord(v, i)
		for val := 0; val < c.K; val++ {
			if val != cur {
				out = append(out, c.WithCoord(v, i, val))
			}
		}
	}
	return out
}
