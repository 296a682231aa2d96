package hgraph

import (
	"fmt"

	"overlaynet/internal/graph"
)

// validate checks that the stored successor function is a single
// n-cycle with consistent predecessors.
func (c *Cycle) validate() error {
	n := len(c.succ)
	if n < 3 {
		return fmt.Errorf("hgraph: cycle too small (%d)", n)
	}
	if len(c.pred) != n {
		return fmt.Errorf("hgraph: pred length mismatch")
	}
	v := 0
	for i := 0; i < n; i++ {
		w := int(c.succ[v])
		if w < 0 || w >= n {
			return fmt.Errorf("hgraph: successor of %d out of range", v)
		}
		if int(c.pred[w]) != v {
			return fmt.Errorf("hgraph: pred(succ(%d)) = %d", v, c.pred[w])
		}
		v = w
		if v == 0 && i != n-1 {
			return fmt.Errorf("hgraph: cycle closed after %d steps, want %d", i+1, n)
		}
	}
	if v != 0 {
		return fmt.Errorf("hgraph: cycle did not close")
	}
	return nil
}

// validate checks all cycle invariants.
func (h *HGraph) validate() error {
	for i, c := range h.cycles {
		if len(c.succ) != h.n {
			return fmt.Errorf("hgraph: cycle %d size mismatch", i)
		}
		if err := c.validate(); err != nil {
			return fmt.Errorf("hgraph: cycle %d: %w", i, err)
		}
	}
	return nil
}

// regular reports whether every vertex of g has degree d.
func regular(g *graph.Graph, d int) bool {
	for v := range g.N() {
		if len(g.Neighbors(v)) != d {
			return false
		}
	}
	return true
}

// eccentricity returns the largest BFS distance from v, or −1 when some
// vertex is unreachable. The diameter lies between it and twice it.
func eccentricity(g *graph.Graph, v int) int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	ecc, reached := 0, 1
	for queue := []int{v}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, w := range g.Neighbors(u) {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				ecc = max(ecc, dist[w])
				reached++
				queue = append(queue, int(w))
			}
		}
	}
	if reached < g.N() {
		return -1
	}
	return ecc
}
