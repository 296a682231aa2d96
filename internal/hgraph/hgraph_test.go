package hgraph

import (
	"math"
	"testing"
	"testing/quick"

	"overlaynet/internal/graph"
	"overlaynet/internal/rng"
)

func TestNewCycleFromOrderValid(t *testing.T) {
	c, err := NewCycleFromOrder([]int{2, 0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	// 2 -> 0 -> 1 -> 3 -> 2
	if c.Succ(2) != 0 || c.Succ(0) != 1 || c.Succ(1) != 3 || c.Succ(3) != 2 {
		t.Fatal("successors wrong")
	}
	if c.Pred(0) != 2 || c.Pred(2) != 3 {
		t.Fatal("predecessors wrong")
	}
}

func TestNewCycleFromOrderRejectsBadInput(t *testing.T) {
	if _, err := NewCycleFromOrder([]int{0, 1}); err == nil {
		t.Fatal("accepted 2-vertex cycle")
	}
	if _, err := NewCycleFromOrder([]int{0, 1, 1}); err == nil {
		t.Fatal("accepted duplicate vertex")
	}
	if _, err := NewCycleFromOrder([]int{0, 1, 5}); err == nil {
		t.Fatal("accepted out-of-range vertex")
	}
}

func TestRandomCycleIsHamiltonian(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 3
		c := RandomCycle(rng.New(seed), n)
		return c.validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHGraphInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, dRaw uint8) bool {
		n := int(nRaw%200) + 3
		d := (int(dRaw%4) + 2) * 2 // 4, 6, 8, 10
		h := Random(rng.New(seed), n, d)
		if h.validate() != nil {
			return false
		}
		g := h.Graph()
		return regular(g, d) && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHGraphDegreeAndEdges(t *testing.T) {
	h := Random(rng.New(1), 50, 8)
	g := h.Graph()
	if !regular(g, 8) {
		t.Fatal("not 8-regular")
	}
	if g.NumEdges() != 50*4 {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), 200)
	}
	if h.D() != 8 || len(h.cycles) != 4 || h.N() != 50 {
		t.Fatal("accessors wrong")
	}
}

func TestNeighborsConsistent(t *testing.T) {
	h := Random(rng.New(2), 20, 6)
	for v := 0; v < 20; v++ {
		nb := h.Neighbors(v)
		if len(nb) != 6 {
			t.Fatalf("node %d has %d neighbors", v, len(nb))
		}
		for i := 0; i < len(h.cycles); i++ {
			c := h.Cycle(i)
			if nb[2*i] != c.Pred(v) || nb[2*i+1] != c.Succ(v) {
				t.Fatal("neighbor order mismatch")
			}
			if c.Succ(c.Pred(v)) != v || c.Pred(c.Succ(v)) != v {
				t.Fatal("succ/pred not inverse")
			}
		}
	}
}

func TestRandomHGraphIsExpander(t *testing.T) {
	// Corollary 1: |λ₂| ≤ 2√d w.h.p. for random ℍ-graphs.
	n, d := 512, 8
	h := Random(rng.New(3), n, d)
	lambda2 := h.Graph().SecondEigenvalue(rng.New(4), 200)
	bound := 2 * math.Sqrt(float64(d))
	if lambda2 > bound {
		t.Fatalf("second eigenvalue %.3f exceeds 2sqrt(d) = %.3f", lambda2, bound)
	}
	if lambda2 <= 0 {
		t.Fatalf("degenerate eigenvalue estimate %.3f", lambda2)
	}
}

func TestRandomHGraphDiameterLogarithmic(t *testing.T) {
	// Expanders have O(log n) diameter; sanity check at n=1024, d=8 the
	// diameter stays small (log2(1024) = 10; allow slack): it is at most
	// twice the eccentricity of any vertex.
	h := Random(rng.New(5), 1024, 8)
	ecc := eccentricity(h.Graph(), 0)
	if ecc < 2 || 2*ecc > 14 {
		t.Fatalf("eccentricity %d of vertex 0 outside plausible expander range", ecc)
	}
}

func TestRandomPanicsOnBadDegree(t *testing.T) {
	for _, d := range []int{0, 2, 3, 5, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Random accepted degree %d", d)
				}
			}()
			Random(rng.New(1), 10, d)
		}()
	}
}

func TestCycleFirstSuccUniform(t *testing.T) {
	// Succ(0) in a uniform random Hamilton cycle is uniform over the
	// other n-1 vertices.
	const n, trials = 6, 50000
	r := rng.New(7)
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[RandomCycle(r, n).Succ(0)]++
	}
	if counts[0] != 0 {
		t.Fatal("Succ(0) == 0 impossible")
	}
	expected := float64(trials) / float64(n-1)
	for v := 1; v < n; v++ {
		if math.Abs(float64(counts[v])-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("Succ(0)=%d count %d far from %.0f", v, counts[v], expected)
		}
	}
}

var sinkGraph *graph.Graph

func BenchmarkRandomHGraph4096(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		h := Random(r, 4096, 8)
		sinkGraph = h.Graph()
	}
}
