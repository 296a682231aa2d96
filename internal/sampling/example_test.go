package sampling_test

import (
	"fmt"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
)

// ExampleRapidHGraph shows rapid node sampling on a random ℍ-graph:
// every node obtains Θ(log n) near-uniform peers in O(log log n)
// communication rounds.
func ExampleRapidHGraph() {
	h := hgraph.Random(rng.New(1), 512, 8)
	p := sampling.HGraphParams{N: 512, D: 8, Alpha: 2, Epsilon: 1, C: 2}
	res := sampling.RapidHGraph(7, h, p)
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("samples per node:", len(res.Samples[0]))
	fmt.Println("failures:", res.Failures)
	fmt.Println("rounds a plain walk would need:", p.WalkTarget()+1)
	// Output:
	// rounds: 13
	// samples per node: 18
	// failures: 0
	// rounds a plain walk would need: 37
}

// ExampleRapidHypercube runs Algorithm 2 on the 8-dimensional binary
// hypercube: the samples are exactly uniform.
func ExampleRapidHypercube() {
	p := sampling.KAryParams{K: 2, Dim: 8, Epsilon: 1, C: 2}
	res := sampling.RapidHypercube(3, p)
	fmt.Println("nodes:", len(res.Samples))
	fmt.Println("rounds:", res.Rounds)
	fmt.Println("samples per node:", len(res.Samples[0]))
	// Output:
	// nodes: 256
	// rounds: 7
	// samples per node: 16
}

// ExampleHGraphParams shows how the budgets of Lemma 7 shrink
// geometrically toward the final sample count c·log₂ n.
func ExampleHGraphParams() {
	p := sampling.HGraphParams{N: 1024, D: 8, Alpha: 2.5, Epsilon: 1, C: 1}
	fmt.Println("walk target:", p.WalkTarget())
	fmt.Println("iterations T:", p.T())
	for i := 0; i <= p.T(); i++ {
		fmt.Printf("m_%d = %d\n", i, p.M(i))
	}
	// Output:
	// walk target: 50
	// iterations T: 6
	// m_0 = 7290
	// m_1 = 2430
	// m_2 = 810
	// m_3 = 270
	// m_4 = 90
	// m_5 = 30
	// m_6 = 10
}
