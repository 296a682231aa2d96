// Package graph provides the undirected (multi)graph representation and
// the analytics used to validate topologies produced by the overlay
// protocols: connectivity, components, diameter, degree statistics, and a
// spectral-gap estimate that certifies expansion (Corollary 1 of the
// paper bounds |λ_i| ≤ 2√d for random H-graphs).
//
// Vertices are dense indices 0..N-1; callers that work with sparse node
// identifiers maintain their own index mapping.
package graph

// Graph is an undirected multigraph over vertices 0..N-1.
// Parallel edges are allowed (H-graphs need them); self-loops are not.
type Graph struct {
	n   int
	adj [][]int32
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// AddEdge adds an undirected edge {u, v}. Adding the same pair twice
// creates a parallel edge. Self-loops are rejected.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		panic("graph: self-loop")
	}
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
}

// Neighbors returns the neighbor list of v (with multiplicity).
// The returned slice must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// NumEdges returns the number of undirected edges, counting parallel
// edges separately.
func (g *Graph) NumEdges() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// IsConnected reports whether the graph is connected. The empty graph
// and the single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return g.bfsCount(0, nil) == g.n
}

// IsConnectedRestricted reports whether the subgraph induced by the
// vertices with alive[v] == true is connected. A subgraph with no alive
// vertices or a single alive vertex counts as connected. This implements
// the paper's notion of "connected under a DoS-attack": the network
// restricted to its non-blocked nodes is still connected.
func (g *Graph) IsConnectedRestricted(alive []bool) bool {
	start := -1
	total := 0
	for v := 0; v < g.n; v++ {
		if alive[v] {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total <= 1 {
		return true
	}
	return g.bfsCount(start, alive) == total
}

// bfsCount returns the number of vertices reachable from start; if alive
// is non-nil, traversal is restricted to alive vertices.
func (g *Graph) bfsCount(start int, alive []bool) int {
	visited := make([]bool, g.n)
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(start))
	visited[start] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if visited[w] || (alive != nil && !alive[w]) {
				continue
			}
			visited[w] = true
			count++
			queue = append(queue, w)
		}
	}
	return count
}

// Components returns the vertex sets of the connected components,
// largest first.
func (g *Graph) Components() [][]int {
	visited := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if visited[s] {
			continue
		}
		comp := []int{s}
		visited[s] = true
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.adj[v] {
				if !visited[w] {
					visited[w] = true
					comp = append(comp, int(w))
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Selection sort by size descending; component count is tiny in practice.
	for i := 0; i < len(comps); i++ {
		best := i
		for j := i + 1; j < len(comps); j++ {
			if len(comps[j]) > len(comps[best]) {
				best = j
			}
		}
		comps[i], comps[best] = comps[best], comps[i]
	}
	return comps
}
