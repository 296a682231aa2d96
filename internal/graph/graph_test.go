package graph

import (
	"testing"
	"testing/quick"

	"overlaynet/internal/rng"
)

// cycle returns the n-cycle.
func cycle(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

// path returns the n-vertex path.
func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEmptyAndTrivialConnected(t *testing.T) {
	if !New(0).IsConnected() {
		t.Fatal("empty graph should be connected")
	}
	if !New(1).IsConnected() {
		t.Fatal("single vertex should be connected")
	}
	if New(2).IsConnected() {
		t.Fatal("two isolated vertices should not be connected")
	}
}

func TestCycleConnectivityAndDiameter(t *testing.T) {
	for _, n := range []int{3, 4, 5, 10, 11} {
		g := cycle(n)
		if !g.IsConnected() {
			t.Fatalf("cycle %d not connected", n)
		}
		want := n / 2
		if got := g.Diameter(); got != want {
			t.Fatalf("cycle %d diameter = %d, want %d", n, got, want)
		}
	}
}

func TestPathDiameter(t *testing.T) {
	for _, n := range []int{2, 5, 17} {
		if got := path(n).Diameter(); got != n-1 {
			t.Fatalf("path %d diameter = %d, want %d", n, got, n-1)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.Diameter() != -1 {
		t.Fatal("disconnected graph should have diameter -1")
	}
	if g.DiameterLowerBound(0) != -1 {
		t.Fatal("disconnected graph should have lower-bound -1")
	}
}

func TestDiameterLowerBoundOnPath(t *testing.T) {
	// Double BFS is exact on trees.
	for _, n := range []int{2, 9, 30} {
		g := path(n)
		if got := g.DiameterLowerBound(n / 2); got != n-1 {
			t.Fatalf("path %d double-BFS = %d, want %d", n, got, n-1)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// 5, 6 isolated
	comps := g.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 {
		t.Fatalf("components not sorted by size: %v", comps)
	}
}

func TestIsConnectedRestricted(t *testing.T) {
	g := cycle(6)
	alive := []bool{true, true, true, true, true, true}
	if !g.IsConnectedRestricted(alive) {
		t.Fatal("full cycle should be connected")
	}
	// Remove two opposite vertices: cycle splits into two arcs.
	alive[0], alive[3] = false, false
	if g.IsConnectedRestricted(alive) {
		t.Fatal("cycle minus opposite vertices should be disconnected")
	}
	// Remove one vertex: still a path.
	alive = []bool{false, true, true, true, true, true}
	if !g.IsConnectedRestricted(alive) {
		t.Fatal("cycle minus one vertex should remain connected")
	}
	// Zero or one alive vertex is trivially connected.
	alive = []bool{false, false, false, false, false, false}
	if !g.IsConnectedRestricted(alive) {
		t.Fatal("no alive vertices should count as connected")
	}
	alive[2] = true
	if !g.IsConnectedRestricted(alive) {
		t.Fatal("single alive vertex should count as connected")
	}
}

func TestParallelEdgesAndDegree(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if len(g.adj[0]) != 2 || len(g.adj[1]) != 2 {
		t.Fatalf("parallel edges not counted: deg0=%d deg1=%d", len(g.adj[0]), len(g.adj[1]))
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge(v,v) did not panic")
		}
	}()
	New(3).AddEdge(1, 1)
}

func TestDegreeStatsAndRegular(t *testing.T) {
	g := cycle(8)
	min, max, mean := g.DegreeStats()
	if min != 2 || max != 2 || mean != 2 {
		t.Fatalf("cycle degree stats = %d/%d/%f", min, max, mean)
	}
	if !g.IsRegular(2) {
		t.Fatal("cycle should be 2-regular")
	}
	if g.IsRegular(3) {
		t.Fatal("cycle is not 3-regular")
	}
}

func TestSecondEigenvalueCompleteGraph(t *testing.T) {
	// K_n has eigenvalues n-1 and -1 (multiplicity n-1), so |λ₂| = 1.
	n := 20
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	got := g.SecondEigenvalue(rng.New(1), 300)
	if got < 0.9 || got > 1.1 {
		t.Fatalf("K_%d second eigenvalue = %f, want ~1", n, got)
	}
}

func TestSecondEigenvalueCycle(t *testing.T) {
	// C_16 is bipartite, so its spectrum contains -2 and the largest
	// absolute non-principal eigenvalue is exactly 2.
	g := cycle(16)
	got := g.SecondEigenvalue(rng.New(2), 2000)
	if got < 1.9 || got > 2.05 {
		t.Fatalf("C_16 second eigenvalue = %f, want ~2", got)
	}
}

func TestConnectivityRandomTreeProperty(t *testing.T) {
	// Property: a random spanning-tree-like construction is connected,
	// and removing its last added vertex edge keeps count consistent.
	f := func(seed uint64, sizeRaw uint8) bool {
		n := int(sizeRaw%50) + 2
		r := rng.New(seed)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, r.Intn(v))
		}
		if !g.IsConnected() {
			return false
		}
		comps := g.Components()
		return len(comps) == 1 && len(comps[0]) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEccentricity(t *testing.T) {
	g := path(5)
	ecc, ok := g.Eccentricity(0)
	if !ok || ecc != 4 {
		t.Fatalf("path end eccentricity = %d/%v, want 4/true", ecc, ok)
	}
	ecc, ok = g.Eccentricity(2)
	if !ok || ecc != 2 {
		t.Fatalf("path middle eccentricity = %d/%v, want 2/true", ecc, ok)
	}
}

// TestUnionFindMatchesComponents merges random edges and checks the
// number of successful unions and every set size against the BFS
// components of the same graph, on a backing array reused across Resets.
func TestUnionFindMatchesComponents(t *testing.T) {
	var uf UnionFind
	uf.Reset(64)
	backing := &uf.p[0]
	f := func(seed uint64, sizeRaw, edgesRaw uint8) bool {
		n := int(sizeRaw%60) + 2
		r := rng.New(seed)
		g := New(n)
		uf.Reset(n)
		merges := 0
		for i := 0; i < int(edgesRaw%80); i++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			g.AddEdge(a, b)
			if uf.Union(int32(a), int32(b)) {
				merges++
			}
			if uf.Union(int32(b), int32(a)) {
				return false // a repeated union merges nothing
			}
		}
		comps := g.Components()
		if n-merges != len(comps) {
			return false
		}
		for _, c := range comps {
			for _, v := range c {
				if uf.Find(int32(v)) != uf.Find(int32(c[0])) || uf.Size(int32(v)) != len(c) {
					return false
				}
			}
		}
		return &uf.p[0] == backing
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFindResetForgets(t *testing.T) {
	var uf UnionFind
	uf.Reset(4)
	uf.Union(0, 1)
	uf.Union(2, 3)
	uf.Union(1, 3)
	if uf.Size(0) != 4 {
		t.Fatalf("size after three merges = %d, want 4", uf.Size(0))
	}
	uf.Reset(6)
	for v := int32(0); v < 6; v++ {
		if uf.Find(v) != v || uf.Size(v) != 1 {
			t.Fatalf("vertex %d is not a singleton after Reset", v)
		}
	}
}
