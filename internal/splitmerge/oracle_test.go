package splitmerge

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
// ConnectedNow decides on, over the committed members (in Members()
// order), minus any edge a currently open partition window severs, and
// returns it with the members' alive flags. It is the oracle this
// package shipped before collapseViews and is kept as the reference the
// differential tests below compare against.
func (nw *Network) referenceKnowledgeGraph() (*graph.Graph, []bool) {
	members := nw.Members()
	idx := make(map[sim.NodeID]int, len(members))
	for i, id := range members {
		idx[id] = i
	}
	alive := make([]bool, len(members))
	for i, id := range members {
		alive[i] = !nw.eng.BlockedAgo(int32(id-1), 0)
	}
	g := graph.New(len(members))
	seen := make(map[int64]bool)
	addEdge := func(a, b int) {
		if a == b || nw.eng.Faults.CutsEdge(nw.eng.Round, uint64(members[a]), uint64(members[b])) {
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
	for i, id := range members {
		e := int(nw.eng.ViewEpoch[id-1])
		if e > nw.eng.Epoch {
			e = nw.eng.Epoch
		}
		if base, _ := nw.eng.Views(); e < base {
			e = base
		}
		h := nw.eng.ViewAt(e)
		if int(id) > len(h.NodeGroup) {
			continue
		}
		x := h.NodeGroup[id-1]
		if x < 0 {
			continue
		}
		link := func(group int32) {
			for _, w := range h.Groups[group] {
				if wi, ok := idx[w]; ok {
					addEdge(i, wi)
				}
			}
		}
		link(x)
		for _, y := range h.Adj[x] {
			link(y)
		}
	}
	return g, alive
}

// checkOracle asserts that the union-find oracle and the materialized
// reference agree on the current state — on the verdict, on the whole
// partition of the alive-induced subgraph behind it, and on the
// all-members partition KnowledgeComponents reports — and returns the
// verdict.
func checkOracle(t *testing.T, nw *Network) bool {
	t.Helper()
	g, alive := nw.referenceKnowledgeGraph()
	members := nw.Members()
	slot := func(i int) int32 { return int32(members[i] - 1) }
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
		nw.Step(adv.SelectBlocked(nw.eng.Round+1, nw.N(), buf.View(nw.eng.Round+1)))
		if checkOracle(t, nw) {
			connected++
		} else {
			cut++
		}
	}
	return connected, cut
}

func TestOracleMatchesReferenceRandomBlocking(t *testing.T) {
	for _, frac := range []float64{0, 0.2, 0.4, 0.9, 1.0} {
		t.Run(fmt.Sprint(frac), func(t *testing.T) {
			nw := New(Config{Seed: 31, N0: 512, MeasureEvery: -1})
			defer nw.Close()
			adv := &dos.Random{Fraction: frac, R: rng.New(7), IDs: nw.Members}
			attack(t, nw, adv, &dos.Buffer{}, 2*nw.EpochRounds())
		})
	}
}

// Both verdicts must occur (see the supernode twin of this test).
func TestOracleMatchesReferenceGroupIsolate(t *testing.T) {
	for _, late := range []bool{false, true} {
		t.Run(fmt.Sprintf("late=%v", late), func(t *testing.T) {
			nw := New(Config{Seed: 32, N0: 1024, MeasureEvery: -1})
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

// churn replaces an eighth of the members and adds grow joins and
// shrink leaves on top, all taking effect at the next commit.
func churn(nw *Network, r *rng.RNG, grow, shrink int) {
	members := nw.Members()
	k := len(members) / 8
	gone := make(map[sim.NodeID]bool)
	for len(gone) < k+shrink {
		if id := members[r.Intn(len(members))]; !gone[id] {
			gone[id] = true
			nw.Leave(id)
		}
	}
	for i := 0; i < k+grow; {
		if s := members[r.Intn(len(members))]; !gone[s] {
			nw.Join(s)
			i++
		}
	}
}

// Churn across a split and a merge, with a third of the founding
// members blocked for epochs at a time: their stale views name history
// entries with other supernode counts, other adjacency and members that
// have since left, and joiners hold views of epochs they were not in.
// In two of each epoch's idle reorganization rounds only a handful of
// those victims are alive, so the graph is their stale views and little
// else and its partition shows whether the oracle resolved them.
func TestOracleMatchesReferenceChurnSplitMerge(t *testing.T) {
	nw := New(Config{Seed: 33, N0: 512, MeasureEvery: -1})
	defer nw.Close()
	r := rng.New(9)
	victims := make(map[sim.NodeID]bool)
	for id := sim.NodeID(1); id <= 512; id += 3 {
		victims[id] = true
	}
	staleAlive, cut, entries := 0, 0, 0
	for e := 0; e < 8; e++ {
		grow, shrink := nw.N()/2, 0 // four epochs up, four down
		if e >= 4 {
			grow, shrink = 0, nw.N()/3
		}
		churn(nw, r, grow, shrink)
		for i, er := 0, nw.EpochRounds(); i < er; i++ {
			blocked := victims
			if e%3 == 2 {
				blocked = nil // let the victims catch up now and then
			}
			if i == er-5 || i == er-4 {
				blocked = make(map[sim.NodeID]bool)
				var still []sim.NodeID
				for _, id := range nw.Members() {
					blocked[id] = true
					if victims[id] {
						still = append(still, id)
					}
				}
				for j := 0; j < 6; j++ {
					delete(blocked, still[r.Intn(len(still))])
				}
			}
			nw.Step(blocked)
			if !checkOracle(t, nw) {
				cut++
			}
			for v, x := range nw.eng.NodeGroup {
				if x >= 0 && int(nw.eng.ViewEpoch[v]) < nw.eng.Epoch && !nw.eng.BlockedAgo(int32(v), 0) {
					staleAlive++
				}
			}
		}
		_, views := nw.eng.Views()
		entries = max(entries, views)
	}
	st := nw.StatsSnapshot()
	if st.Splits == 0 || st.Merges+st.ForcedMerges == 0 {
		t.Fatalf("scenario saw %d splits and %d merges, want both", st.Splits, st.Merges+st.ForcedMerges)
	}
	if staleAlive == 0 || cut == 0 || entries < 3 {
		t.Fatalf("scenario saw %d alive stale views, %d cut rounds and at most %d history entries, want all three",
			staleAlive, cut, entries)
	}
}

func TestOracleMatchesReferencePartitionWindow(t *testing.T) {
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			nw := New(Config{Seed: 34, N0: 512, MeasureEvery: -1})
			defer nw.Close()
			er := nw.EpochRounds()
			nw.SetFaults(fault.Spec{Seed: 99, PartK: k, PartFrom: er / 2, PartWin: er})
			adv := &dos.Random{Fraction: 0.2, R: rng.New(9), IDs: nw.Members}
			churn(nw, rng.New(10), 0, 0)
			_, cut := attack(t, nw, adv, &dos.Buffer{}, 2*er+er/2)
			if cut < er {
				t.Fatalf("only %d cut rounds with a %d-round partition window open", cut, er)
			}
		})
	}
}

func TestOracleMatchesReferenceCorruptState(t *testing.T) {
	nw := New(Config{Seed: 35, N0: 512, MeasureEvery: -1})
	defer nw.Close()
	r := rng.New(10)
	for e := 0; e < 4; e++ {
		for i := 0; i < 6; i++ { // index desyncs and dimension mutations
			nw.CorruptState(r.Uint64())
		}
		checkOracle(t, nw)
		members := nw.Members()
		for i := 0; i < nw.EpochRounds(); i++ {
			nw.Step(map[sim.NodeID]bool{members[r.Intn(len(members))]: true})
			checkOracle(t, nw)
		}
		nw.RepairBalance()
		nw.RepairMembership()
		checkOracle(t, nw)
	}
}

func TestOracleEdgeCases(t *testing.T) {
	nw := New(Config{Seed: 36, N0: 128, MeasureEvery: -1})
	defer nw.Close()
	everyone := make(map[sim.NodeID]bool)
	for _, id := range nw.Members() {
		everyone[id] = true
	}
	nw.Step(everyone) // nobody alive
	if !checkOracle(t, nw) {
		t.Fatal("no alive member must count as connected")
	}
	delete(everyone, 77)
	nw.Step(everyone) // one alive member
	if !checkOracle(t, nw) {
		t.Fatal("a single alive member must count as connected")
	}
	group := make(map[sim.NodeID]bool) // one whole group down, the rest up
	for _, id := range nw.supers[0].members {
		group[id] = true
	}
	nw.Step(group)
	if !checkOracle(t, nw) {
		t.Fatal("one silenced group must not disconnect the cube of the others")
	}
}

// TestConnectedNowAllocsSteadyState is the oracle's allocation gate: its
// scratch is created by the first call — a network that never measures
// carries none — and later calls allocate nothing.
func TestConnectedNowAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race: the race runtime allocates on its own")
	}
	nw := New(Config{Seed: 1, N0: 2048, MeasureEvery: -1})
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
