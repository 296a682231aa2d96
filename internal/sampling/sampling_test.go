package sampling

import (
	"math"
	"testing"
	"testing/quick"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
)

func TestMultisetBasics(t *testing.T) {
	var m Multiset[int]
	r := rng.New(1)
	if _, ok := m.Extract(r); ok {
		t.Fatal("extract from empty multiset succeeded")
	}
	m.Add(1)
	m.Add(1)
	m.Add(2)
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	seen := map[int]int{}
	for i := 0; i < 3; i++ {
		v, ok := m.Extract(r)
		if !ok {
			t.Fatal("extract failed")
		}
		seen[v]++
	}
	if seen[1] != 2 || seen[2] != 1 {
		t.Fatalf("multiset contents wrong: %v", seen)
	}
	if m.Len() != 0 {
		t.Fatal("multiset not empty after extracting all")
	}
}

func TestMultisetExtractUniform(t *testing.T) {
	r := rng.New(2)
	const trials = 30000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		var m Multiset[int]
		m.Add(0)
		m.Add(1)
		m.Add(2)
		v, _ := m.Extract(r)
		counts[v]++
	}
	if metrics.ChiSquareUniform(counts) > 13.8 { // df=2, 99.9%
		t.Fatalf("extraction not uniform: %v", counts)
	}
}

func TestMultisetResetAndClear(t *testing.T) {
	var m Multiset[int]
	m.Reset([]int{7, 8})
	if m.Len() != 2 {
		t.Fatal("reset failed")
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestHGraphParams(t *testing.T) {
	p := DefaultHGraphParams(1024, 8)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// d=8: log_{d/4} n = log₂ 1024 = 10; walk target = 2·2.5·10 = 50.
	if got := p.WalkTarget(); got != 50 {
		t.Fatalf("walk target = %d, want 50", got)
	}
	if got := p.T(); got != 6 { // ceil(log2 50)
		t.Fatalf("T = %d, want 6", got)
	}
	if p.Rounds() != 13 {
		t.Fatalf("rounds = %d, want 13", p.Rounds())
	}
	// Budgets decrease geometrically and end at c·log₂ n.
	prev := p.M(0)
	for i := 1; i <= p.T(); i++ {
		cur := p.M(i)
		if cur > prev {
			t.Fatalf("m_%d = %d > m_%d = %d", i, cur, i-1, prev)
		}
		prev = cur
	}
	if p.Samples() != 10 {
		t.Fatalf("samples = %d, want 10", p.Samples())
	}
}

func TestHGraphParamsValidate(t *testing.T) {
	bad := []HGraphParams{
		{N: 2, D: 8, Alpha: 2, Epsilon: 1, C: 1},
		{N: 100, D: 7, Alpha: 2, Epsilon: 1, C: 1},
		{N: 100, D: 8, Alpha: 0.5, Epsilon: 1, C: 1},
		{N: 100, D: 8, Alpha: 2, Epsilon: 0, C: 1},
		{N: 100, D: 8, Alpha: 2, Epsilon: 1.5, C: 1},
		{N: 100, D: 8, Alpha: 2, Epsilon: 1, C: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

// TestParamsRejectNonFinite: a NaN or infinite slack, budget constant or
// walk factor is an error, not a panic deep inside the sampler.
func TestParamsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		p    interface{ Validate() error }
	}{
		{"kary/eps=NaN", KAryParams{K: 3, Dim: 4, Epsilon: nan, C: 1}},
		{"kary/c=NaN", KAryParams{K: 3, Dim: 4, Epsilon: 1, C: nan}},
		{"kary/c=+Inf", KAryParams{K: 3, Dim: 4, Epsilon: 1, C: inf}},
		{"hgraph/alpha=NaN", HGraphParams{N: 100, D: 8, Alpha: nan, Epsilon: 1, C: 1}},
		{"hgraph/alpha=+Inf", HGraphParams{N: 100, D: 8, Alpha: inf, Epsilon: 1, C: 1}},
		{"hgraph/eps=NaN", HGraphParams{N: 100, D: 8, Alpha: 2, Epsilon: nan, C: 1}},
		{"hgraph/c=NaN", HGraphParams{N: 100, D: 8, Alpha: 2, Epsilon: 1, C: nan}},
		{"hgraph/c=+Inf", HGraphParams{N: 100, D: 8, Alpha: 2, Epsilon: 1, C: inf}},
	} {
		if c.p.Validate() == nil {
			t.Errorf("%s: accepted %+v", c.name, c.p)
		}
	}
}

func TestHypercubeParams(t *testing.T) {
	p := DefaultHypercubeParams(16)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.T() != 4 {
		t.Fatalf("T = %d, want 4", p.T())
	}
	if p.Samples() != 16 {
		t.Fatalf("samples = %d, want 16", p.Samples())
	}
	if p.Rounds() != 9 {
		t.Fatalf("rounds = %d, want 9", p.Rounds())
	}
	if (KAryParams{K: 2, Dim: 12, Epsilon: 1, C: 1}).Validate() == nil {
		t.Fatal("non-power-of-two dimension accepted")
	}
}

// TestHypercubeScheduleIsLemma9: at K = 2 the k-ary schedule's
// log₂ n = Dim·log₂ 2 is Dim exactly, so every budget is Lemma 9's
// m_i = ⌈(1+ε)^(T−i)·c·d⌉.
func TestHypercubeScheduleIsLemma9(t *testing.T) {
	for d := 2; d <= 32; d *= 2 {
		for _, eps := range []float64{0.1, 0.5, 1} {
			for _, c := range []float64{0.3, 1, 2, 3.7} {
				p := KAryParams{K: 2, Dim: d, Epsilon: eps, C: c}
				T := p.T()
				if 1<<T != d || p.Rounds() != 2*T+1 || p.Samples() != p.M(T) {
					t.Fatalf("%+v: T = %d, %d rounds, %d samples", p, T, p.Rounds(), p.Samples())
				}
				for i := 0; i <= T; i++ {
					if want := int(math.Ceil(math.Pow(1+eps, float64(T-i)) * c * float64(d))); p.M(i) != want {
						t.Errorf("%+v: m_%d = %d, Lemma 9 gives %d", p, i, p.M(i), want)
					}
				}
			}
		}
	}
}

// walkHGraph performs a centralized simple random walk of the given
// length on an ℍ-graph and returns the endpoint: the §2.3 law that
// BaselineWalkHGraph distributes. By Lemma 2 the endpoint of a
// ⌈2α·log_{d/4} n⌉-step walk is almost uniform.
func walkHGraph(r *rng.RNG, h *hgraph.HGraph, start, steps int) int {
	v := start
	d := h.D()
	for s := 0; s < steps; s++ {
		// Simple random walk on the multigraph: pick one of the d
		// incident edge endpoints (with multiplicity) uniformly.
		e := r.Intn(d)
		c := h.Cycle(e / 2)
		if e%2 == 0 {
			v = c.Pred(v)
		} else {
			v = c.Succ(v)
		}
	}
	return v
}

// walkHypercube performs the classic d-round coin-flip walk of Section
// 2.3 on the d-dimensional binary hypercube: in round i the token
// moves to n_i(v) with probability 1/2, else stays. The endpoint is
// exactly uniform over all 2^d vertices.
func walkHypercube(r *rng.RNG, d int, start hypercube.Vertex) hypercube.Vertex {
	v := start
	for i := 1; i <= d; i++ {
		if r.Coin() {
			v = hypercube.Neighbor(v, i)
		}
	}
	return v
}

func TestWalkHypercubeUniform(t *testing.T) {
	r := rng.New(3)
	const d, trials = 6, 64000
	counts := make([]int, hypercube.N(d))
	for i := 0; i < trials; i++ {
		counts[walkHypercube(r, d, 0)]++
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(len(counts), trials)
	if tv > 3*env {
		t.Fatalf("hypercube walk TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestWalkHGraphAlmostUniform(t *testing.T) {
	r := rng.New(4)
	h := hgraph.Random(r, 64, 8)
	p := DefaultHGraphParams(64, 8)
	const trials = 64000
	counts := make([]int, 64)
	for i := 0; i < trials; i++ {
		counts[walkHGraph(r, h, 0, p.WalkTarget())]++
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(64, trials)
	if tv > 3*env {
		t.Fatalf("H-graph walk TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestWalkHGraphShortWalkNotUniform(t *testing.T) {
	// Negative control: a length-1 walk lands on a neighbor, which is
	// far from uniform.
	r := rng.New(5)
	h := hgraph.Random(r, 64, 8)
	counts := make([]int, 64)
	for i := 0; i < 10000; i++ {
		counts[walkHGraph(r, h, 0, 1)]++
	}
	if tv := metrics.TVDistanceUniform(counts); tv < 0.5 {
		t.Fatalf("length-1 walk suspiciously uniform (TV %.3f)", tv)
	}
}

// TestRapidHGraphBasics checks what holds at every seed: m_T samples a
// node, each in range, p.Rounds() rounds with their work accounted, every
// request served, and the failures exactly the refusals the budget tally
// counts. At n = 128 and c = 1 about half the seeds see a refusal, so
// none is asserted absent; TestM0BudgetLaw compares that share with the
// list form's.
func TestRapidHGraphBasics(t *testing.T) {
	r := rng.New(6)
	n, d := 128, 8
	h := hgraph.Random(r, n, d)
	p := HGraphParams{N: n, D: d, Alpha: 2, Epsilon: 1, C: 1}
	res := RapidHGraph(77, h, p)
	want := p.Samples()
	for v, s := range res.Samples {
		if len(s) != want {
			t.Fatalf("node %d has %d samples, want %d", v, len(s), want)
		}
		for _, w := range s {
			if w < 0 || w >= n {
				t.Fatalf("node %d sampled out-of-range %d", v, w)
			}
		}
	}
	if res.Rounds != p.Rounds() {
		t.Fatalf("rounds = %d, want %d", res.Rounds, p.Rounds())
	}
	if res.MaxNodeBits <= 0 || res.TotalBits <= 0 {
		t.Fatal("work accounting missing")
	}
	run := (&diffCase{n: n, p: p}).run(77, hgraphSamplers())
	failures, issued := 0, 0
	for _, f := range run.Failures {
		failures += f
	}
	for i := 1; i <= p.T(); i++ {
		issued += n * p.M(i)
	}
	if b := run.Budget; int64(failures) != b.Refused || b.Issued != int64(issued) || b.Served != b.Issued {
		t.Fatalf("%d failures, budget tally %+v, want %d issued and served", failures, b, issued)
	}
}

func TestRapidHGraphAlmostUniform(t *testing.T) {
	r := rng.New(7)
	n, d := 128, 8
	h := hgraph.Random(r, n, d)
	p := HGraphParams{N: n, D: d, Alpha: 2, Epsilon: 1, C: 2}
	res := RapidHGraph(88, h, p)
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
		t.Fatalf("rapid H-graph samples TV %.4f > 3x envelope %.4f (total %d)", tv, env, total)
	}
}

func TestRapidHGraphDeterministic(t *testing.T) {
	r := rng.New(8)
	h := hgraph.Random(r, 64, 8)
	p := HGraphParams{N: 64, D: 8, Alpha: 2, Epsilon: 1, C: 1}
	a := RapidHGraph(5, h, p)
	b := RapidHGraph(5, h, p)
	for v := range a.Samples {
		if len(a.Samples[v]) != len(b.Samples[v]) {
			t.Fatalf("node %d sample counts differ", v)
		}
		for i := range a.Samples[v] {
			if a.Samples[v][i] != b.Samples[v][i] {
				t.Fatalf("node %d sample %d differs: %d vs %d", v, i, a.Samples[v][i], b.Samples[v][i])
			}
		}
	}
	if a.TotalBits != b.TotalBits {
		t.Fatal("work accounting not deterministic")
	}
}

func TestRapidHGraphUndersizedBudgetFails(t *testing.T) {
	// E5 failure injection: with a tiny budget constant and minimal
	// slack, extraction-from-empty events must appear, yet the
	// protocol still completes with the full sample count.
	r := rng.New(9)
	n, d := 256, 8
	h := hgraph.Random(r, n, d)
	p := HGraphParams{N: n, D: d, Alpha: 2, Epsilon: 0.01, C: 0.05}
	res := RapidHGraph(99, h, p)
	if res.Failures == 0 {
		t.Fatal("undersized budget produced no failures; injection broken")
	}
	for v, s := range res.Samples {
		if len(s) != p.Samples() {
			t.Fatalf("node %d finished with %d samples, want %d", v, len(s), p.Samples())
		}
	}
}

// checkRefusalsRare is what Theorems 2 and 3 promise of one run at the
// prescribed budgets: an extraction from an empty multiset is rare, not
// impossible. Every one of the n nodes still ends with its m samples, and
// the refusals stay under 1 % of those n·m final draws. (A zero-failure
// assert at the fixed seeds below failed at 1, 3 and 46 of seeds 1–100;
// the worst of those runs refused 0.34 %.)
func checkRefusalsRare(t *testing.T, res *RapidResult, n, m int) {
	t.Helper()
	if len(res.Samples) != n {
		t.Fatalf("got %d nodes, want %d", len(res.Samples), n)
	}
	for v, s := range res.Samples {
		if len(s) != m {
			t.Fatalf("node %d has %d samples, want %d", v, len(s), m)
		}
	}
	if 100*res.Failures > n*m {
		t.Fatalf("%d refusals among %d final draws, over the 1%% bound", res.Failures, n*m)
	}
}

func TestRapidHypercubeBasics(t *testing.T) {
	p := DefaultHypercubeParams(8)
	checkRefusalsRare(t, RapidHypercube(11, p), hypercube.N(8), p.Samples())
}

func TestRapidHypercubeUniform(t *testing.T) {
	p := KAryParams{K: 2, Dim: 8, Epsilon: 1, C: 2}
	res := RapidHypercube(12, p)
	n := hypercube.N(8)
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
		t.Fatalf("rapid hypercube samples TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestRapidHypercubeCoordinateBalance(t *testing.T) {
	// Lemma 8: every coordinate of a final sample is an independent
	// fair bit, so each coordinate must be ~50/50 across all samples.
	p := DefaultHypercubeParams(8)
	res := RapidHypercube(13, p)
	total := 0
	ones := make([]int, 8)
	for _, s := range res.Samples {
		for _, w := range s {
			total++
			for i := 1; i <= 8; i++ {
				ones[i-1] += (w >> (i - 1)) & 1
			}
		}
	}
	for i, c := range ones {
		frac := float64(c) / float64(total)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("coordinate %d one-fraction %.3f far from 0.5", i+1, frac)
		}
	}
}

func TestRapidHypercubeDeterministic(t *testing.T) {
	p := DefaultHypercubeParams(4)
	a := RapidHypercube(21, p)
	b := RapidHypercube(21, p)
	for v := range a.Samples {
		for i := range a.Samples[v] {
			if a.Samples[v][i] != b.Samples[v][i] {
				t.Fatal("hypercube sampling not deterministic")
			}
		}
	}
}

// TestRapidHypercubeSurvivesLatencySpread: under a latency model with
// spread, KAryParams.Latency is a deadline, as in §5 and §6 — a
// message later than one round is lost, not deferred, and draws from
// the lists it leaves short are counted failures.
func TestRapidHypercubeSurvivesLatencySpread(t *testing.T) {
	p := DefaultHypercubeParams(4)
	p.Latency = mustLatency(t, "uniform:0.5,2.5")
	if res := RapidHypercube(42, p); res.Failures == 0 || res.Deferred != 0 {
		t.Fatalf("spread run counted %d failures and deferred %d messages, want failures > 0 and nothing deferred", res.Failures, res.Deferred)
	}
}

func TestBaselineWalkHGraph(t *testing.T) {
	r := rng.New(14)
	n, d := 64, 8
	h := hgraph.Random(r, n, d)
	p := DefaultHGraphParams(n, d)
	steps := p.WalkTarget()
	res := BaselineWalkHGraph(31, h, 4, steps)
	if res.Rounds != steps+1 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, steps+1)
	}
	counts := make([]int, n)
	total := 0
	for v, s := range res.Samples {
		if len(s) != 4 {
			t.Fatalf("node %d got %d answers, want 4", v, len(s))
		}
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(n, total)
	if tv > 3*env {
		t.Fatalf("baseline walk TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestBaselineWalkHypercube(t *testing.T) {
	const dim = 6
	res := BaselineWalkHypercube(41, dim, 4)
	if res.Rounds != dim+1 {
		t.Fatalf("rounds = %d, want %d", res.Rounds, dim+1)
	}
	n := hypercube.N(dim)
	counts := make([]int, n)
	total := 0
	for v, s := range res.Samples {
		if len(s) != 4 {
			t.Fatalf("node %d got %d answers, want 4", v, len(s))
		}
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(n, total)
	if tv > 3*env {
		t.Fatalf("baseline hypercube walk TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestRapidFasterThanBaseline(t *testing.T) {
	// The headline claim (E4): rapid sampling uses exponentially fewer
	// rounds than plain walks at every size.
	for _, n := range []int{256, 1024, 4096} {
		p := DefaultHGraphParams(n, 8)
		if p.Rounds() >= p.WalkTarget()+1 {
			t.Fatalf("n=%d: rapid rounds %d not faster than walk rounds %d",
				n, p.Rounds(), p.WalkTarget()+1)
		}
	}
}

func TestMultisetExtractProperty(t *testing.T) {
	// Extracting k of n inserted items leaves n−k, and every extracted
	// item was inserted.
	f := func(seed uint64, items []uint8, kRaw uint8) bool {
		if len(items) == 0 {
			return true
		}
		r := rng.New(seed)
		var m Multiset[uint8]
		inserted := map[uint8]int{}
		for _, v := range items {
			m.Add(v)
			inserted[v]++
		}
		k := int(kRaw) % (len(items) + 1)
		for i := 0; i < k; i++ {
			v, ok := m.Extract(r)
			if !ok || inserted[v] == 0 {
				return false
			}
			inserted[v]--
		}
		return m.Len() == len(items)-k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
