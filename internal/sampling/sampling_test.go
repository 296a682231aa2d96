package sampling

import (
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
	if p.WalkLength() != 64 {
		t.Fatalf("walk length = %d, want 64", p.WalkLength())
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
	if (HypercubeParams{Dim: 12, Epsilon: 1, C: 1}).Validate() == nil {
		t.Fatal("non-power-of-two dimension accepted")
	}
}

func TestWalkHypercubeUniform(t *testing.T) {
	r := rng.New(3)
	const d, trials = 6, 64000
	counts := make([]int, hypercube.N(d))
	for i := 0; i < trials; i++ {
		counts[WalkHypercube(r, d, 0)]++
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
		counts[WalkHGraph(r, h, 0, p.WalkTarget())]++
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
		counts[WalkHGraph(r, h, 0, 1)]++
	}
	if tv := metrics.TVDistanceUniform(counts); tv < 0.5 {
		t.Fatalf("length-1 walk suspiciously uniform (TV %.3f)", tv)
	}
}

func TestRapidHGraphBasics(t *testing.T) {
	r := rng.New(6)
	n, d := 128, 8
	h := hgraph.Random(r, n, d)
	p := HGraphParams{N: n, D: d, Alpha: 2, Epsilon: 1, C: 1}
	res := RapidHGraph(77, h, p)
	if res.Failures != 0 {
		t.Fatalf("unexpected failures: %d", res.Failures)
	}
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

func TestRapidHypercubeBasics(t *testing.T) {
	p := DefaultHypercubeParams(8)
	res := RapidHypercube(11, p)
	if res.Failures != 0 {
		t.Fatalf("unexpected failures: %d", res.Failures)
	}
	n := hypercube.N(8)
	if len(res.Samples) != n {
		t.Fatalf("got %d nodes", len(res.Samples))
	}
	for v, s := range res.Samples {
		if len(s) != p.Samples() {
			t.Fatalf("node %d has %d samples, want %d", v, len(s), p.Samples())
		}
	}
}

func TestRapidHypercubeUniform(t *testing.T) {
	p := HypercubeParams{Dim: 8, Epsilon: 1, C: 2}
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
				ones[i-1] += hypercube.Bit(hypercube.Vertex(w), i)
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

// TestRapidHypercubeSurvivesLatencySpread: a request deferred past its
// iteration names a list beyond dimension d; it must be refused as a
// counted failure, not index out of range.
func TestRapidHypercubeSurvivesLatencySpread(t *testing.T) {
	p := DefaultHypercubeParams(4)
	p.Latency = mustLatency(t, "uniform:0.5,2.5")
	if res := RapidHypercube(42, p); res.Deferred == 0 || res.Failures == 0 {
		t.Fatalf("spread run deferred %d messages and counted %d failures, want both > 0", res.Deferred, res.Failures)
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
