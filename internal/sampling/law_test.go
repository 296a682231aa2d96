package sampling

import (
	"math"
	"slices"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
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
		return RapidHypercube(seed, KAryParams{K: 2, Dim: 4, Epsilon: 1, C: 16})
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

// m0Counts is what TestM0BudgetLaw pools over the runs of one sampler:
// iteration 1's requests per (asker, target) cell, the final samples
// per vertex, and per run the refusals.
type m0Counts struct {
	asks, samples, refused []int
}

// m0Node is one vertex of a law run: it counts the requests its first
// serve round answers, and its samples.
type m0Node struct {
	s     nodeSampler
	v     int
	p     HGraphParams
	nbrs  []int
	fails *int
	out   *m0Counts
	step  int
}

func (nd *m0Node) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	nd.step++
	if nd.step == 1 {
		nd.s.Start(ctx, nd.p, nd.v, nd.nbrs, vertexID, nd.fails, nil)
		return true
	}
	if nd.step == 2 {
		for _, m := range inbox {
			nd.out.asks[int(m.From-1)*nd.p.N+nd.v] += int(m.Payload.(reqBatch).Count)
		}
	}
	if !nd.s.HandleRound(ctx, inbox, nil) {
		return true
	}
	for _, w := range nd.s.Samples() {
		nd.out.samples[w]++
	}
	return false
}

// m0Runs runs Algorithm 1 on h at seeds seed0 … seed0+seeds−1, each
// run with samplers made by a factory of its own from samplers, and
// pools what m0Counts holds.
func m0Runs(h *hgraph.HGraph, p HGraphParams, seed0, seeds int, samplers func() func() nodeSampler) m0Counts {
	n := h.N()
	out := m0Counts{asks: make([]int, n*n), samples: make([]int, n)}
	for seed := seed0; seed < seed0+seeds; seed++ {
		fails, mk := make([]int, n), samplers()
		simulate(sim.NewNetwork(sim.Config{Seed: uint64(seed)}), n, p.Rounds(), func(v int) sim.Handler {
			return &m0Node{s: mk(), v: v, p: p, nbrs: h.Neighbors(v), fails: &fails[v], out: &out}
		})
		refused := 0
		for _, f := range fails {
			refused += f
		}
		out.refused = append(out.refused, refused)
	}
	return out
}

// chiSquareTwoSample is the χ² statistic of the hypothesis that the
// counts a and b, cell by cell, are draws of one law, and its degrees of
// freedom: the cells that either side reaches, less one.
func chiSquareTwoSample(a, b []int) (chi float64, df int) {
	na, nb := 0.0, 0.0
	for i := range a {
		na, nb = na+float64(a[i]), nb+float64(b[i])
	}
	ka, kb := math.Sqrt(nb/na), math.Sqrt(na/nb)
	for i := range a {
		if s := a[i] + b[i]; s > 0 {
			d := ka*float64(a[i]) - kb*float64(b[i])
			chi += d * d / float64(s)
			df++
		}
	}
	return chi, df - 1
}

// TestM0BudgetLaw compares, in law, HGraphSampler's M_0 — a count, each
// read a fresh neighbor position — with the list it replaced: m_0 draws
// made at Start, read by swap-remove (referenceSampler's eager form). On
// TestRapidHGraphBasics' shape (n = 128, d = 8, c = 1: m_0 = 1701,
// m_1 = 567, T = 5) it pools m0LawSeeds runs of each, the two at
// disjoint seeds (at one seed both read the same generator words), and
// compares by χ² against its 10⁻⁵ quantile
//   - iteration 1's requests per (asker, target) cell, asker by asker
//     (an asker's row adds up to m_1 a run on either side), where M_0 is
//     read in the open;
//   - the final samples per vertex, which everything M_0 fed reaches;
//   - the runs with a refusal against those without: at c = 1 about half
//     the runs see one.
//
// Under FlatBudget every read past an M_i's m entries is refused, so
// each side refuses exactly T·n·m times a run, and the counts must agree.
//
// Power: each of these mutations of HGraphSampler fails the test.
//   - A symbol drawn from the first d−1 neighbors (requests, χ² ≈ 3·10⁵
//     against a bound of 10³).
//   - The generator state not handed back after a read, so every read
//     reuses one word (requests, samples).
//   - A budget one short of m_0 (FlatBudget refusals, n more a run).
func TestM0BudgetLaw(t *testing.T) {
	const m0LawSeeds = 32
	p := HGraphParams{N: 128, D: 8, Alpha: 2, Epsilon: 1, C: 1}
	h := hgraph.Random(rng.New(6), p.N, p.D)
	list := func() func() nodeSampler {
		return func() nodeSampler { return &referenceSampler{eager: true} }
	}
	budget := hgraphSamplers
	want, got := m0Runs(h, p, 1, m0LawSeeds, list), m0Runs(h, p, 1+m0LawSeeds, m0LawSeeds, budget)
	refusing := func(c m0Counts) []int { // runs with a refusal, runs without
		k := 0
		for _, r := range c.refused {
			if r > 0 {
				k++
			}
		}
		return []int{k, len(c.refused) - k}
	}
	asks, asksDF := 0.0, 0
	for u := range p.N {
		chi, df := chiSquareTwoSample(want.asks[u*p.N:(u+1)*p.N], got.asks[u*p.N:(u+1)*p.N])
		asks, asksDF = asks+chi, asksDF+df
	}
	samples, samplesDF := chiSquareTwoSample(want.samples, got.samples)
	runs, runsDF := chiSquareTwoSample(refusing(want), refusing(got))
	for _, st := range []struct {
		name string
		chi  float64
		df   int
	}{{"requests", asks, asksDF}, {"samples", samples, samplesDF}, {"runs with a refusal", runs, runsDF}} {
		if st.df > 0 && st.chi > metrics.ChiSquareBound(st.df) {
			t.Errorf("%s: χ² = %.1f at %d degrees of freedom, above %.1f", st.name, st.chi, st.df, metrics.ChiSquareBound(st.df))
		}
	}
	t.Logf("runs with a refusal, list and budget: %v %v", refusing(want), refusing(got))

	flat := p
	flat.FlatBudget = true
	want, got = m0Runs(h, flat, 1, 2, list), m0Runs(h, flat, 3, 2, budget)
	if !slices.Equal(got.refused, want.refused) {
		t.Errorf("FlatBudget: %v refusals a run, the list form %v", got.refused, want.refused)
	}
}
