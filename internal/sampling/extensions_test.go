package sampling

import (
	"reflect"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
)

func TestRapidRegularOnHGraphMatchesQuality(t *testing.T) {
	// Running the generic regular-graph sampler on an H-graph's
	// adjacency must give near-uniform samples, like RapidHGraph.
	n := 144
	r := rng.New(1)
	h := hgraph.Random(r, n, 8)
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = h.Neighbors(v)
	}
	p := HGraphParams{N: n, Epsilon: 1, C: 2, WalkOverride: 32}
	res := RapidRegular(9, adj, p)
	checkRefusalsRare(t, res, n, p.Samples())
	counts := make([]int, n)
	total := 0
	for _, s := range res.Samples {
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(n, total)
	if tv > 3*env {
		t.Fatalf("expander samples TV %.4f > 3x envelope %.4f", tv, env)
	}
}

// torusDist returns the L1 distance between torus vertices a and b.
func torusDist(side, a, b int) int {
	dr := abs(a/side - b/side)
	if side-dr < dr {
		dr = side - dr
	}
	dc := abs(a%side - b%side)
	if side-dc < dc {
		dc = side - dc
	}
	return dr + dc
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestRapidRegularOnTorusIsLocal(t *testing.T) {
	// The ablation behind A3. Pooled counts on a torus are uniform by
	// vertex-transitivity, so the discriminator is LOCALITY: a
	// Θ(log n)-step walk on a 24x24 torus stays within ~sqrt(steps) of
	// its origin, while uniform samples average side/2 away. The same
	// walk length on an expander mixes fully (previous test).
	const side = 24
	adj := TorusAdjacency(side)
	n := len(adj)
	p := HGraphParams{N: n, Epsilon: 1, C: 2, WalkOverride: 32}
	res := RapidRegular(9, adj, p)
	sum, cnt := 0.0, 0
	for v, s := range res.Samples {
		for _, w := range s {
			sum += float64(torusDist(side, v, w))
			cnt++
		}
	}
	mean := sum / float64(cnt)
	uniformMean := float64(side) / 2 // E[L1] = 2·(side/4) = side/2
	if mean > 0.75*uniformMean {
		t.Fatalf("torus samples not local: mean distance %.2f vs uniform %.2f — "+
			"expansion apparently not needed?", mean, uniformMean)
	}
}

func TestTorusAdjacency(t *testing.T) {
	adj := TorusAdjacency(5)
	if len(adj) != 25 {
		t.Fatalf("torus has %d nodes", len(adj))
	}
	for v, nb := range adj {
		if len(nb) != 4 {
			t.Fatalf("node %d degree %d", v, len(nb))
		}
		// Neighbor relation must be symmetric.
		for _, w := range nb {
			found := false
			for _, back := range adj[w] {
				if back == v {
					found = true
				}
			}
			if !found {
				t.Fatalf("torus edge %d-%d not symmetric", v, w)
			}
		}
	}
}

func TestRapidRegularPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	adj := TorusAdjacency(4)
	mustPanic("no override", func() {
		RapidRegular(1, adj, HGraphParams{N: 16, Epsilon: 1, C: 1})
	})
	mustPanic("size mismatch", func() {
		RapidRegular(1, adj, HGraphParams{N: 99, Epsilon: 1, C: 1, WalkOverride: 8})
	})
	irregular := TorusAdjacency(4)
	irregular[3] = irregular[3][:2]
	mustPanic("irregular", func() {
		RapidRegular(1, irregular, HGraphParams{N: 16, Epsilon: 1, C: 1, WalkOverride: 8})
	})
}

func TestKAryParams(t *testing.T) {
	p := DefaultKAryParams(3, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.T() != 2 || p.Rounds() != 5 {
		t.Fatalf("T=%d rounds=%d", p.T(), p.Rounds())
	}
	if p.Samples() < 6 { // ceil(4·log2 3) = 7
		t.Fatalf("samples = %d", p.Samples())
	}
	bad := []KAryParams{
		{K: 1, Dim: 4, Epsilon: 1, C: 1},
		{K: 3, Dim: 3, Epsilon: 1, C: 1},
		{K: 3, Dim: 4, Epsilon: 0, C: 1},
		{K: 3, Dim: 4, Epsilon: 1, C: 0},
	}
	for i, b := range bad {
		if b.Validate() == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestRapidKAryUniform(t *testing.T) {
	// k=3, dim=4: n = 81 vertices; samples must be uniform.
	p := KAryParams{K: 3, Dim: 4, Epsilon: 1, C: 2}
	res := RapidKAry(11, p)
	n := 81
	checkRefusalsRare(t, res, n, p.Samples())
	counts := make([]int, n)
	total := 0
	for _, s := range res.Samples {
		for _, w := range s {
			if w < 0 || w >= n {
				t.Fatalf("sample %d out of range", w)
			}
			counts[w]++
			total++
		}
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(n, total)
	if tv > 3*env {
		t.Fatalf("k-ary samples TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestRapidKAryCoordinateUniform(t *testing.T) {
	// Each coordinate of a sample must be uniform over {0,…,k−1}.
	p := KAryParams{K: 4, Dim: 2, Epsilon: 1, C: 3}
	res := RapidKAry(12, p)
	counts := make([][]int, 2)
	counts[0] = make([]int, 4)
	counts[1] = make([]int, 4)
	total := 0
	for _, s := range res.Samples {
		for _, w := range s {
			counts[0][w%4]++
			counts[1][w/4%4]++
			total++
		}
	}
	for c := 0; c < 2; c++ {
		if chi := metrics.ChiSquareUniform(counts[c]); chi > 16.27 { // df=3, 99.9%
			t.Fatalf("coordinate %d not uniform: chi2 %.1f (%v)", c, chi, counts[c])
		}
	}
}

// TestRapidKAryBinaryMatchesHypercube: the binary cube is the k-ary
// cube at k = 2, run by the same driver on the same schedule, so the two
// entry points return the same result, draw for draw.
func TestRapidKAryBinaryMatchesHypercube(t *testing.T) {
	for _, seed := range []uint64{13, 14} {
		got := RapidKAry(seed, KAryParams{K: 2, Dim: 4, Epsilon: 1, C: 2})
		want := RapidHypercube(seed, HypercubeParams{Dim: 4, Epsilon: 1, C: 2})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: k = 2 gave %+v, the hypercube %+v", seed, got, want)
		}
	}
}

func TestRapidKAryDeterministic(t *testing.T) {
	p := KAryParams{K: 3, Dim: 2, Epsilon: 1, C: 1}
	a := RapidKAry(21, p)
	b := RapidKAry(21, p)
	for v := range a.Samples {
		for i := range a.Samples[v] {
			if a.Samples[v][i] != b.Samples[v][i] {
				t.Fatal("k-ary sampling not deterministic")
			}
		}
	}
}
