package sampling

import (
	"testing"

	"overlaynet/internal/metrics"
)

// lawCube is one cube TestRapidCubeLaw runs a public Algorithm 2 driver
// on, with ε = 1 and a budget constant c so large that no list can be
// expected to run empty: at iteration i a vertex's list of m_{i−1} ≈ 2·m_i
// entries is asked m_i times on average, with a binomial spread that
// leaves m_i of headroom 8.7 standard deviations or more in every case
// below. A draw from an empty list would answer the vertex itself and
// bias the offsets, so the test also requires that none happened.
type lawCube struct {
	name   string
	k, dim int
	run    func(seed uint64) *RapidResult
}

var lawCubes = []lawCube{
	{"hypercube/dim=4", 2, 4, func(seed uint64) *RapidResult { // two doubling steps
		return RapidHypercube(seed, HypercubeParams{Dim: 4, Epsilon: 1, C: 16})
	}},
	{"kary/k=3,dim=2", 3, 2, func(seed uint64) *RapidResult { // one Intn draw per symbol
		return RapidKAry(seed, KAryParams{K: 3, Dim: 2, Epsilon: 1, C: 16})
	}},
	{"kary/k=4,dim=2", 4, 2, func(seed uint64) *RapidResult { // two bits per symbol
		return RapidKAry(seed, KAryParams{K: 4, Dim: 2, Epsilon: 1, C: 16})
	}},
}

// lawCounts runs the cube's driver once per seed in [seed0, seed0+seeds)
// and pools, over every vertex u and each of its final samples v, v's
// vertex and the offset v − u digit by digit mod k, and counts the draws
// that found their list empty.
func lawCounts(c lawCube, seed0, seeds int) (abs, rel []int, fails int) {
	n := 1
	for range c.dim {
		n *= c.k
	}
	abs, rel = make([]int, n), make([]int, n)
	for s := seed0; s < seed0+seeds; s++ {
		res := c.run(uint64(s))
		fails += res.Failures
		for u, smp := range res.Samples {
			for _, v := range smp {
				abs[v]++
				o := 0
				for p := 1; p < n; p *= c.k {
					o += (v/p%c.k - u/p%c.k + c.k) % c.k * p
				}
				rel[o]++
			}
		}
	}
	return abs, rel, fails
}

// TestRapidCubeLaw checks, by χ² over the final samples of lawSeeds runs
// pooled, what Lemma 8 and Theorem 3 say of RapidHypercube and RapidKAry:
// a final sample is exactly uniform on the cube ("sample") and
// independent of the vertex that drew it ("offset"). Each statistic is
// compared against its 10⁻⁵ quantile: with six of them, a correct sampler
// fails for about one seed range in 17,000.
//
// Power at lawSeeds = 512, measured over 100 disjoint seed ranges: each
// of these mutations of the committee engine's Algorithm 2 fails the
// test in all 100, and the sampler as it is in none.
//   - A symbol bit biased to 1/2 + 1/64, each word OR-ed with the AND of
//     five more (sample χ², binary cube and K = 4).
//   - A generator word reused: a refill of the symbol buffer that does
//     not advance the generator (sample χ², binary cube and K = 4).
//   - A doubling step that reads list j+2^(i−1)−1 instead of j+2^(i−1)
//     (offset χ², and empty lists, every cube).
func TestRapidCubeLaw(t *testing.T) {
	const lawSeeds = 512
	for _, c := range lawCubes {
		abs, rel, fails := lawCounts(c, 1, lawSeeds)
		if fails > 0 {
			t.Errorf("%s: %d draws found their list empty", c.name, fails)
		}
		for _, st := range []struct {
			name   string
			counts []int
		}{{"sample", abs}, {"offset", rel}} {
			if chi, bound := metrics.ChiSquareUniform(st.counts), metrics.ChiSquareBound(len(st.counts)-1); chi > bound {
				t.Errorf("%s: %s χ² = %.1f over %d cells, above %.1f", c.name, st.name, chi, len(st.counts), bound)
			}
		}
	}
}
