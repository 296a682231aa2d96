package hypercube

import (
	"math/bits"

	"overlaynet/internal/graph"
)

// The cubes materialized for the structural tests, each from the
// shipped neighbour rule (Neighbor, KAry.Neighbors).

// cubeGraph materializes the binary d-cube.
func cubeGraph(d int) *graph.Graph {
	n := N(d)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for i := 1; i <= d; i++ {
			if w := int(Neighbor(Vertex(v), i)); v < w {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// materialize builds the k-ary cube's graph.
func (c *KAry) materialize() *graph.Graph {
	g := graph.New(c.N())
	for v := 0; v < c.N(); v++ {
		for _, w := range c.Neighbors(v) {
			if v < w {
				g.AddEdge(v, w)
			}
		}
	}
	return g
}

// hamming returns the Hamming distance between two binary vertices.
func hamming(a, b Vertex) int { return bits.OnesCount64(uint64(a ^ b)) }

// dist returns the number of coordinates in which a and b differ.
func (c *KAry) dist(a, b int) int {
	d := 0
	for i := 0; i < c.D; i++ {
		if c.Coord(a, i) != c.Coord(b, i) {
			d++
		}
	}
	return d
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
// vertex is unreachable. Both cubes are vertex-transitive, so from any
// vertex it is the diameter.
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
