package graph

// Distance and degree summaries of a materialized graph, checked on
// paths and cycles by graph_test.go.

// Eccentricity returns the maximum BFS distance from v to any reachable
// vertex, and whether all vertices were reached.
func (g *Graph) Eccentricity(v int) (ecc int, allReached bool) {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int32{int32(v)}
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				if dist[w] > ecc {
					ecc = dist[w]
				}
				reached++
				queue = append(queue, w)
			}
		}
	}
	return ecc, reached == g.n
}

// Diameter returns the exact diameter via BFS from every vertex.
// It returns -1 if the graph is disconnected. O(N·(N+M)); intended for
// validation at moderate sizes.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc, ok := g.Eccentricity(v)
		if !ok {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterLowerBound returns a lower bound on the diameter using double
// BFS from the given start vertex (exact on trees, a good heuristic on
// expanders). Returns -1 if disconnected.
func (g *Graph) DiameterLowerBound(start int) int {
	far, ok := g.farthest(start)
	if !ok {
		return -1
	}
	ecc, _ := g.Eccentricity(far)
	return ecc
}

func (g *Graph) farthest(v int) (int, bool) {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int32{int32(v)}
	reached := 1
	far := v
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] < 0 {
				dist[w] = dist[u] + 1
				if dist[w] > dist[far] {
					far = int(w)
				}
				reached++
				queue = append(queue, w)
			}
		}
	}
	return far, reached == g.n
}

// DegreeStats returns the minimum, maximum, and mean degree.
func (g *Graph) DegreeStats() (min, max int, mean float64) {
	if g.n == 0 {
		return 0, 0, 0
	}
	min = len(g.adj[0])
	total := 0
	for _, a := range g.adj {
		d := len(a)
		total += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return min, max, float64(total) / float64(g.n)
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for _, a := range g.adj {
		if len(a) != d {
			return false
		}
	}
	return true
}
