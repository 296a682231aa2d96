package committee

import (
	"testing"

	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
)

// lawCube is one cube the law test runs Algorithm 2 on. Its schedule
// keeps every list from underflowing: at iteration i a list of m_{i−1}
// entries is asked by the k^(2^(i−1)) vertices of a block at most m_i
// times each, so m_{i−1} ≥ k^(2^(i−1))·m_i leaves no draw without an
// entry, and the law TestSamplerLaw checks is exact, not approximate. A
// list that carries its coins past iteration 1 still holds m₀ ≥ m_{i−1}
// of them. m_T = 2 gives each vertex one pair of samples from its final
// list.
type lawCube struct {
	k, d int
	mi   []int
}

var lawCubes = []lawCube{
	{k: 2, d: 4, mi: []int{16, 8, 2}},        // D = 2^T, T = 2: two doubling steps
	{k: 2, d: 3, mi: []int{16, 8, 2}},        // ragged: list 3 carries its coins to iteration 2
	{k: 2, d: 5, mi: []int{256, 128, 32, 2}}, // ragged: list 5 carries its coins to iteration 3
	{k: 3, d: 2, mi: []int{6, 2}},            // one Intn draw per symbol
	{k: 4, d: 2, mi: []int{8, 2}},            // a power of two above 2: two bits per symbol
}

// lawCounts runs one epoch of the toy engine on the cube per seed in
// [seed0, seed0+seeds) and pools, over every vertex u and its final
// samples a and b: a's vertex, a − u digit by digit mod k, and the pair
// (a − u, b − u), and counts the draws that underflowed.
func lawCounts(t *testing.T, c lawCube, seed0, seeds int) (abs, rel, pair []int, fails int) {
	ty := newToy(c.k, c.d, 1)
	defer ty.e.Close()
	e, n := ty.e, len(ty.verts)
	abs, rel, pair = make([]int, n), make([]int, n), make([]int, n*n)
	off := func(u, v int) (o int) {
		for p := 1; p < n; p *= c.k {
			o += (v/p%c.k - u/p%c.k + c.k) % c.k * p
		}
		return o
	}
	for s := seed0; s < seed0+seeds; s++ {
		root := rng.New(uint64(s))
		for i := range e.NodeR {
			e.NodeR[i] = root.Split(uint64(i) + 1)
		}
		e.Reset(n, c.d, c.mi)
		clear(e.Owner)
		for pr := 0; pr < 2*len(c.mi)-1; pr++ {
			e.Begin(nil, ty.members, ty.verts)
			e.Sample(pr)
			fails += e.End().SampleFails
		}
		for u, smp := range e.Samples {
			if len(smp) != 2 {
				t.Fatalf("k=%d d=%d seed %d: vertex %d holds %d final samples, want 2", c.k, c.d, s, u, len(smp))
			}
			for _, v := range smp {
				abs[v]++
				rel[off(u, int(v))]++
			}
			pair[off(u, int(smp[0]))*n+off(u, int(smp[1]))]++
		}
	}
	return abs, rel, pair, fails
}

// TestSamplerLaw checks, by χ² over the final samples of lawSeeds epochs
// pooled, what Lemma 8 and Theorem 3 need of Algorithm 2: a final sample
// is uniform on the cube ("sample") and independent of its source vertex
// ("offset" from the source), and two samples from one list are
// independent ("pair", their joint offset). It runs the binary cube with
// two doubling steps, two ragged binary cubes whose last list serves its
// Phase-1 coins at iteration 2 (D = 3) and 3 (D = 5), and k-ary cubes
// with K = 3 and K = 4, so every way a symbol is drawn is visited. Each
// statistic is compared against its 10⁻⁵ quantile: with fifteen of them,
// a correct sampler fails for about one seed range in 7,000.
//
// Power at lawSeeds = 1500, measured over 100 disjoint seed ranges: each
// of these mutations fails the test in all 100, and the sampler as it is
// in none.
//   - A symbol bit served twice, the buffered word shifted only every
//     other read (pair χ², every binary cube and K = 4).
//   - Iteration 1's popcount taken over one bit too many (sample χ²,
//     D = 3 and 4).
//   - A carried-over coin list decoded with the asking list's place value
//     (offset and pair χ², D = 3 and 5 only).
//   - A symbol bit biased to 1/2 + 1/64 (sample χ², D = 4, D = 5, K = 4).
//   - A doubling step that reads list j+2^(i−1)−1 instead of j+2^(i−1)
//     (offset and pair χ², and underflows, every cube).
func TestSamplerLaw(t *testing.T) {
	const lawSeeds = 1500
	for _, c := range lawCubes {
		abs, rel, pair, fails := lawCounts(t, c, 0, lawSeeds)
		if fails > 0 {
			t.Errorf("k=%d d=%d: %d draws underflowed; the schedule %v must rule that out", c.k, c.d, fails, c.mi)
		}
		for _, st := range []struct {
			name   string
			counts []int
		}{{"sample", abs}, {"offset", rel}, {"pair", pair}} {
			if chi, bound := metrics.ChiSquareUniform(st.counts), metrics.ChiSquareBound(len(st.counts)-1); chi > bound {
				t.Errorf("k=%d d=%d: %s χ² = %.1f over %d cells, above %.1f", c.k, c.d, st.name, chi, len(st.counts), bound)
			}
		}
	}
}
