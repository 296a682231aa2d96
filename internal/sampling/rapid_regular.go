package sampling

import "fmt"

// RapidRegular runs Algorithm 1 on an arbitrary regular multigraph
// given by adjacency lists (every list must have the same length,
// counting multiplicity). The paper notes (end of §3.1) that the
// primitive "does not use any properties of ℍ-graphs aside from their
// regularity and their expansion", so it works for any regular graph —
// but the QUALITY of the samples depends on the graph's mixing time:
// on an expander a Θ(log n) walk is almost uniform, while on a poorly
// expanding graph (a torus, say) the same walk stays local and the
// samples are badly skewed. Ablation A3 measures exactly this.
//
// Set p.WalkOverride to the desired walk-length target; p.D is ignored.
func RapidRegular(seed uint64, adj [][]int, p HGraphParams) *RapidResult {
	if p.WalkOverride <= 0 {
		panic("sampling: RapidRegular requires p.WalkOverride")
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := len(adj)
	if n != p.N {
		panic(fmt.Sprintf("sampling: adjacency has %d nodes, params say %d", n, p.N))
	}
	deg := len(adj[0])
	if deg > MaxDegree {
		panic(fmt.Sprintf("sampling: degree %d exceeds %d, the most a sampler's byte symbols index", deg, MaxDegree))
	}
	for v, nb := range adj {
		if len(nb) != deg {
			panic(fmt.Sprintf("sampling: graph not regular: node %d has degree %d, want %d", v, len(nb), deg))
		}
	}
	return rapidWalks(seed, n, p, func(v int) []int { return adj[v] })
}

// TorusAdjacency returns the 4-regular side×side torus adjacency, the
// canonical poorly-expanding regular graph used by ablation A3.
func TorusAdjacency(side int) [][]int {
	n := side * side
	adj := make([][]int, n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			adj[v] = []int{
				((r+1)%side)*side + c,
				((r-1+side)%side)*side + c,
				r*side + (c+1)%side,
				r*side + (c-1+side)%side,
			}
		}
	}
	return adj
}
