// Package hgraph implements the ℍ-graph topology of Section 2.2 of the
// paper: an undirected d-regular multigraph over n nodes whose edge set
// is the (multiset) union of d/2 oriented Hamilton cycles C₁,…,C_{d/2}.
// A uniform random element of ℍₙ is obtained by choosing the cycles
// independently and uniformly at random; by Friedman's theorem such a
// graph is an expander w.h.p. (Corollary 1: |λᵢ| ≤ 2√d for i > 1).
package hgraph

import (
	"fmt"

	"overlaynet/internal/graph"
	"overlaynet/internal/rng"
)

// Cycle is one oriented Hamilton cycle over vertices 0..n-1.
// Each vertex stores its successor and predecessor, matching the
// paper's requirement that a node holds references to its predecessor
// and successor in each cycle.
type Cycle struct {
	succ []int32
	pred []int32
}

// NewCycleFromOrder builds a cycle visiting the vertices in the given
// order (order must be a permutation of 0..n-1 with n ≥ 3).
func NewCycleFromOrder(order []int) (*Cycle, error) {
	n := len(order)
	if n < 3 {
		return nil, fmt.Errorf("hgraph: cycle needs at least 3 vertices, got %d", n)
	}
	c := &Cycle{succ: make([]int32, n), pred: make([]int32, n)}
	seen := make([]bool, n)
	for i, v := range order {
		if v < 0 || v >= n || seen[v] {
			return nil, fmt.Errorf("hgraph: order is not a permutation at index %d", i)
		}
		seen[v] = true
		w := order[(i+1)%n]
		c.succ[v] = int32(w)
	}
	for v, w := range c.succ {
		c.pred[w] = int32(v)
	}
	return c, nil
}

// RandomCycle returns a Hamilton cycle chosen uniformly at random.
func RandomCycle(r *rng.RNG, n int) *Cycle {
	c, err := NewCycleFromOrder(r.Perm(n))
	if err != nil {
		panic(err)
	}
	return c
}

// Succ returns the successor of v in the cycle's orientation.
func (c *Cycle) Succ(v int) int { return int(c.succ[v]) }

// Pred returns the predecessor of v.
func (c *Cycle) Pred(v int) int { return int(c.pred[v]) }

// HGraph is an ℍ-graph: d/2 oriented Hamilton cycles over n vertices.
type HGraph struct {
	n      int
	cycles []*Cycle
}

// Random samples an ℍ-graph uniformly from ℍₙ with degree d. The paper
// takes d ≥ 8 even; we additionally allow any even d ≥ 4 for small
// test instances.
func Random(r *rng.RNG, n, d int) *HGraph {
	if d < 4 || d%2 != 0 {
		panic(fmt.Sprintf("hgraph: degree must be even and >= 4, got %d", d))
	}
	h := &HGraph{n: n, cycles: make([]*Cycle, d/2)}
	for i := range h.cycles {
		h.cycles[i] = RandomCycle(r, n)
	}
	return h
}

// N returns the number of vertices.
func (h *HGraph) N() int { return h.n }

// D returns the degree (twice the number of cycles).
func (h *HGraph) D() int { return 2 * len(h.cycles) }

// Cycle returns the i-th Hamilton cycle.
func (h *HGraph) Cycle(i int) *Cycle { return h.cycles[i] }

// Graph materializes the multigraph (parallel edges preserved).
func (h *HGraph) Graph() *graph.Graph {
	g := graph.New(h.n)
	for _, c := range h.cycles {
		for v := 0; v < h.n; v++ {
			w := c.Succ(v)
			// Add each oriented edge once; the union over v covers
			// every cycle edge exactly once.
			g.AddEdge(v, w)
		}
	}
	return g
}

// Neighbors returns the 2·(d/2) neighbors of v with multiplicity, in
// cycle order: pred₁, succ₁, pred₂, succ₂, …
func (h *HGraph) Neighbors(v int) []int {
	out := make([]int, 0, h.D())
	for _, c := range h.cycles {
		out = append(out, c.Pred(v), c.Succ(v))
	}
	return out
}
