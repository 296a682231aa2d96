package supernode

import (
	"fmt"
	"slices"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/graph"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// referenceKnowledgeGraph materializes the knowledge-based overlay
// ConnectedNow decides on: each node contributes the clique and
// bipartite edges of the epoch it last received, minus any edge a
// currently open partition window severs. It is the oracle this package
// shipped before collapseViews and is kept as the reference the
// differential tests below compare against.
func (nw *Network) referenceKnowledgeGraph() *graph.Graph {
	n := nw.cfg.N
	g := graph.New(n)
	seen := make(map[int64]bool)
	addEdge := func(a, b int) {
		if a == b || nw.eng.Faults.CutsEdge(nw.eng.Round, uint64(a)+1, uint64(b)+1) {
			return
		}
		if a > b {
			a, b = b, a
		}
		key := int64(a)<<32 | int64(b)
		if !seen[key] {
			seen[key] = true
			g.AddEdge(a, b)
		}
	}
	for v := 0; v < n; v++ {
		h := nw.eng.ViewAt(int(nw.eng.ViewEpoch[v]))
		x := h.NodeGroup[v]
		for _, w := range h.Groups[x] {
			addEdge(v, int(w)-1)
		}
		for _, y := range nw.adj[x] {
			for _, w := range h.Groups[y] {
				addEdge(v, int(w)-1)
			}
		}
	}
	return g
}

func (nw *Network) referenceAlive() []bool {
	alive := make([]bool, nw.cfg.N)
	for v := range alive {
		alive[v] = !nw.eng.BlockedAgo(int32(v), 0)
	}
	return alive
}

// checkOracle asserts that the union-find oracle and the materialized
// reference agree on the current state — on the verdict, on the whole
// partition of the alive-induced subgraph behind it, and on the
// all-nodes partition KnowledgeComponents reports — and returns the
// verdict.
func checkOracle(t *testing.T, nw *Network) bool {
	t.Helper()
	g, alive := nw.referenceKnowledgeGraph(), nw.referenceAlive()
	slot := func(v int) int32 { return int32(v) }
	want := g.IsConnectedRestricted(alive)
	if got := nw.ConnectedNow(); got != want {
		t.Fatalf("round %d: ConnectedNow = %v, reference graph says %v", nw.eng.Round, got, want)
	}
	checkPartition(t, nw.eng.Round, induced(g, alive).Components(), slot, &nw.eng.ConnUF)
	var sizes []int
	for _, c := range g.Components() {
		sizes = append(sizes, len(c))
	}
	if got := nw.KnowledgeComponents(); !slices.Equal(got, sizes) {
		t.Fatalf("round %d: KnowledgeComponents sizes = %v, reference graph has %v", nw.eng.Round, got, sizes)
	}
	checkPartition(t, nw.eng.Round, g.Components(), slot, &nw.eng.ConnUF)
	return want
}

// induced returns the subgraph of g on the alive vertices (the others
// stay as isolated vertices).
func induced(g *graph.Graph, alive []bool) *graph.Graph {
	h := graph.New(g.N())
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < int(w) && alive[v] && alive[w] {
				h.AddEdge(v, int(w))
			}
		}
	}
	return h
}

// checkPartition asserts that uf holds exactly the given components:
// one root per component, no root shared by two.
func checkPartition(t *testing.T, round int, comps [][]int, slot func(int) int32, uf *graph.UnionFind) {
	t.Helper()
	owner := make(map[int32]int)
	for ci, c := range comps {
		root := uf.Find(slot(c[0]))
		if other, dup := owner[root]; dup {
			t.Fatalf("round %d: the oracle joins reference components %d and %d", round, other, ci)
		}
		owner[root] = ci
		for _, v := range c[1:] {
			if uf.Find(slot(v)) != root {
				t.Fatalf("round %d: the oracle splits reference component %d at vertex %d", round, ci, v)
			}
		}
	}
}

// attack steps the network under adv for the given rounds, checking the
// oracle after every Step, and counts the verdicts.
func attack(t *testing.T, nw *Network, adv dos.Adversary, buf *dos.Buffer, rounds int) (connected, cut int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		nw.Step(adv.SelectBlocked(nw.eng.Round+1, nw.cfg.N, buf.View(nw.eng.Round+1)))
		if checkOracle(t, nw) {
			connected++
		} else {
			cut++
		}
	}
	return connected, cut
}

func allIDs(n int) []sim.NodeID {
	ids := make([]sim.NodeID, n)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	return ids
}

func TestOracleMatchesReferenceRandomBlocking(t *testing.T) {
	for _, frac := range []float64{0, 0.2, 0.4, 0.9, 1.0} {
		t.Run(fmt.Sprint(frac), func(t *testing.T) {
			nw := New(Config{Seed: 31, N: 512, MeasureEvery: -1})
			defer nw.Close()
			ids := allIDs(512)
			adv := &dos.Random{Fraction: frac, R: rng.New(7), IDs: func() []sim.NodeID { return ids }}
			attack(t, nw, adv, &dos.Buffer{}, 2*nw.EpochRounds())
		})
	}
}

// GroupIsolate sees fresh topology at lateness 0 and cuts the network;
// two epochs late its picture is obsolete and it cannot. Both verdicts
// must occur, or the differential test proves nothing about one of them.
func TestOracleMatchesReferenceGroupIsolate(t *testing.T) {
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("late=%v", late), func(t *testing.T) {
			nw := New(Config{Seed: 32, N: 1024, MeasureEvery: -1})
			defer nw.Close()
			buf := &dos.Buffer{}
			if late {
				buf.Lateness = 2 * nw.EpochRounds()
			}
			adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(8)}
			connected, cut := attack(t, nw, adv, buf, 3*nw.EpochRounds())
			if late && cut > 0 {
				t.Fatalf("%d rounds cut under a 2-epoch-late adversary", cut)
			}
			if !late && (cut == 0 || connected == 0) {
				t.Fatalf("0-late run saw %d connected and %d cut rounds, want both", connected, cut)
			}
		})
	}
}

// Nodes blocked across two reorganizations hold views of an epoch nobody
// else is in any more. With only a handful of them alive at a time the
// graph is their stale views and little else, so its partition shows
// whether the oracle resolved those views through the history ring.
func TestOracleMatchesReferenceStaleViews(t *testing.T) {
	nw := New(Config{Seed: 33, N: 512, MeasureEvery: -1})
	defer nw.Close()
	var victims []sim.NodeID
	down := make(map[sim.NodeID]bool)
	for id := sim.NodeID(1); id <= 512; id += 3 {
		victims = append(victims, id)
		down[id] = true
	}
	for i := 0; i < 2*nw.EpochRounds()+3; i++ {
		nw.Step(down)
		checkOracle(t, nw)
	}
	r := rng.New(11)
	staleAlive, cut := 0, 0
	for i := 0; i < 2*nw.EpochRounds(); i++ {
		blocked := make(map[sim.NodeID]bool)
		for _, id := range allIDs(512) {
			blocked[id] = true
		}
		for j := 0; j < 6; j++ {
			delete(blocked, victims[r.Intn(len(victims))])
		}
		nw.Step(blocked)
		if !checkOracle(t, nw) {
			cut++
		}
		for v, ve := range nw.eng.ViewEpoch {
			if int(ve) < nw.eng.Epoch && !nw.eng.BlockedAgo(int32(v), 0) {
				staleAlive++
			}
		}
	}
	if staleAlive == 0 || cut == 0 {
		t.Fatalf("scenario saw %d alive stale views and %d cut rounds, want both", staleAlive, cut)
	}
}

func TestOracleMatchesReferencePartitionWindow(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			nw := New(Config{Seed: 34, N: 512, MeasureEvery: -1})
			defer nw.Close()
			er := nw.EpochRounds()
			nw.SetFaults(fault.Spec{Seed: 99, PartK: k, PartFrom: er / 2, PartWin: er})
			ids := allIDs(512)
			adv := &dos.Random{Fraction: 0.2, R: rng.New(9), IDs: func() []sim.NodeID { return ids }}
			_, cut := attack(t, nw, adv, &dos.Buffer{}, 2*er+er/2)
			if cut < er {
				t.Fatalf("only %d cut rounds with a %d-round partition window open", cut, er)
			}
		})
	}
}

func TestOracleMatchesReferenceCorruptState(t *testing.T) {
	nw := New(Config{Seed: 35, N: 512, MeasureEvery: -1})
	defer nw.Close()
	r := rng.New(10)
	for e := 0; e < 4; e++ {
		for i := 0; i < 12; i++ { // all three corruption kinds, many victims
			nw.CorruptState(r.Uint64())
		}
		checkOracle(t, nw)
		for i := 0; i < nw.EpochRounds(); i++ {
			nw.Step(map[sim.NodeID]bool{sim.NodeID(1 + r.Intn(512)): true})
			checkOracle(t, nw)
		}
	}
}

func TestOracleEdgeCases(t *testing.T) {
	nw := New(Config{Seed: 36, N: 128, MeasureEvery: -1})
	defer nw.Close()
	everyone := make(map[sim.NodeID]bool)
	for _, id := range allIDs(128) {
		everyone[id] = true
	}
	nw.Step(everyone) // nobody alive
	if !checkOracle(t, nw) {
		t.Fatal("no alive node must count as connected")
	}
	delete(everyone, 77)
	nw.Step(everyone) // one alive node
	if !checkOracle(t, nw) {
		t.Fatal("a single alive node must count as connected")
	}
	group := make(map[sim.NodeID]bool) // one whole group down, the rest up
	for _, id := range nw.groups[0] {
		group[id] = true
	}
	nw.Step(group)
	if !checkOracle(t, nw) {
		t.Fatal("one silenced group must not disconnect the hypercube of the others")
	}
}

// TestConnectedNowAllocsSteadyState is the oracle's allocation gate: its
// scratch is created by the first call — a network that never measures
// carries none — and later calls allocate nothing.
func TestConnectedNowAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race: the race runtime allocates on its own")
	}
	nw := New(Config{Seed: 1, N: 4096, MeasureEvery: -1})
	defer nw.Close()
	for i := 0; i < nw.EpochRounds(); i++ {
		nw.Step(nil)
	}
	if nw.eng.ConnRep != nil {
		t.Fatal("oracle scratch allocated before the first measurement")
	}
	nw.ConnectedNow()
	if a := testing.AllocsPerRun(10, func() { nw.ConnectedNow() }); a != 0 {
		t.Fatalf("ConnectedNow allocates %v objects per call in steady state", a)
	}
}

// FuzzOracleMatchesReference is the differential test on generated
// runs: the arguments decode to a seed, n ∈ [64, 512], one of the four
// adversaries at a fraction in [0, 1], lateness 0 or 2 epochs, no fault,
// a crash schedule, a partition window or a burst of state corruption,
// and up to two epochs of rounds, with the oracle checked against the
// reference after each Step.
func FuzzOracleMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint16(183), uint8(1), uint8(75), uint8(0), uint8(0), uint8(7), uint8(255))
	f.Add(uint64(34), uint16(53), uint8(0), uint8(53), uint8(0), uint8(3), uint8(110), uint8(137))
	f.Add(uint64(196), uint16(62), uint8(1), uint8(102), uint8(0), uint8(3), uint8(117), uint8(255))
	f.Add(uint64(2), uint16(192), uint8(1), uint8(102), uint8(1), uint8(1), uint8(40), uint8(255))
	f.Add(uint64(5), uint16(320), uint8(3), uint8(200), uint8(0), uint8(2), uint8(3), uint8(255))
	f.Add(uint64(4), uint16(64), uint8(2), uint8(128), uint8(1), uint8(0), uint8(0), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, kind, frac, late, faults, faultArg, rounds uint8) {
		n := 64 + int(n16)%449
		nw := New(Config{Seed: seed, N: n, MeasureEvery: -1})
		defer nw.Close()
		er := nw.EpochRounds()
		r := rng.New(seed ^ 0x5eed)
		switch faults % 4 {
		case 1:
			nw.SetFaults(fault.Spec{Seed: seed, Crash: float64(faultArg%64) / 128, Restart: 1 + int(faultArg>>6)%2})
		case 2:
			nw.SetFaults(fault.Spec{Seed: seed, PartK: 2 + int(faultArg)%2, PartFrom: int(faultArg>>1) % er, PartWin: 1 + int(faultArg>>2)%er})
		case 3: // views whose member lists disagree with their pointers
			for i := 0; i <= int(faultArg%16); i++ {
				nw.CorruptState(r.Uint64())
			}
		}
		fraction := float64(frac) / 255
		var adv dos.Adversary
		switch kind % 4 {
		case 0:
			ids := allIDs(n)
			adv = &dos.Random{Fraction: fraction, R: r, IDs: func() []sim.NodeID { return ids }}
		case 1:
			adv = &dos.GroupIsolate{Fraction: fraction, R: r}
		case 2:
			adv = &dos.WholeGroups{Fraction: fraction, R: r}
		case 3:
			adv = &dos.HalfEachGroup{Fraction: fraction, R: r}
		}
		buf := &dos.Buffer{Lateness: 2 * er * int(late%2)}
		attack(t, nw, adv, buf, int(rounds)%(2*er+1))
	})
}
