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

// staleViews blocks every third id, so those nodes miss reorganizations
// and keep views of epochs the others have left. In a Fraction of the
// rounds from From on it blocks every member but a handful of them, so
// the graph is their stale views and little else and its partition shows
// whether the oracle resolved those views through the history ring; in
// one round of 16 nobody is blocked and the victims catch up.
type staleViews struct {
	Fraction float64
	R        *rng.RNG
	IDs      func() []sim.NodeID
	From     int
}

func (a *staleViews) SelectBlocked(round, n int, _ *dos.Snapshot) map[sim.NodeID]bool {
	ids := a.IDs()
	blocked := make(map[sim.NodeID]bool)
	var victims []sim.NodeID
	for _, id := range ids {
		if id%3 == 1 {
			victims = append(victims, id)
			blocked[id] = true
		}
	}
	switch p := a.R.Float64(); {
	case p < 1.0/16:
		return nil
	case round >= a.From && p < 1.0/16+a.Fraction && len(victims) > 0:
		for _, id := range ids {
			blocked[id] = true
		}
		for j := 0; j < 6; j++ {
			delete(blocked, victims[a.R.Intn(len(victims))])
		}
	}
	return blocked
}

// oracleCase is one differential run as FuzzOracleMatchesReference
// decodes it from its arguments.
type oracleCase struct {
	seed                                               uint64
	n                                                  uint16
	kind, frac, late, churn, faults, faultArg, at, eps uint8
}

// oracleRun is what a run saw besides the differential itself.
type oracleRun struct {
	connected, cut int
	open           int // rounds a partition window was open in
	staleAlive     int // alive members holding a past epoch's view, summed over rounds
	entries        int // the most history entries at an epoch's end
	stats          Stats
}

// run decodes the case and steps it epoch by epoch, checking the oracle
// against the reference after every Step: n₀ ∈ [64, 1024]; one of the
// four adversaries or staleViews at a fraction in [0, 1]; lateness 0 or
// 2 epochs; per-epoch churn (none, an eighth replaced, growth by half
// then shrinkage by a third, or the reverse: splits, merges and forced
// merges); no fault, a crash schedule, a partition window, or a burst of
// state corruption repaired by RepairBalance or RepairMembership after
// the decoded number of Steps; 1 to 8 epochs.
func (c oracleCase) run(t *testing.T) oracleRun {
	t.Helper()
	nw := New(Config{Seed: c.seed, N0: 64 + int(c.n)%961, MeasureEvery: -1})
	defer nw.Close()
	er := nw.EpochRounds()
	r := rng.New(c.seed ^ 0x5eed)
	switch c.faults % 4 {
	case 1:
		nw.SetFaults(fault.Spec{Seed: c.seed, Crash: float64(c.faultArg%64) / 128, Restart: 1 + int(c.faultArg>>6)%2})
	case 2:
		nw.SetFaults(fault.Spec{Seed: c.seed, PartK: 2 + int(c.faultArg)%2, PartFrom: int(c.faultArg>>1) % er, PartWin: 1 + int(c.faultArg>>2)%er})
	case 3: // index desyncs and dimension mutations
		for i := 0; i <= int(c.faultArg%16); i++ {
			nw.CorruptState(r.Uint64())
		}
		checkOracle(t, nw)
	}
	fraction := float64(c.frac) / 255
	var adv dos.Adversary
	switch c.kind % 5 {
	case 0:
		adv = &dos.Random{Fraction: fraction, R: r, IDs: nw.Members}
	case 1:
		adv = &dos.GroupIsolate{Fraction: fraction, R: r}
	case 2:
		adv = &dos.WholeGroups{Fraction: fraction, R: r}
	case 3:
		adv = &dos.HalfEachGroup{Fraction: fraction, R: r}
	case 4:
		adv = &staleViews{Fraction: fraction, R: r, IDs: nw.Members, From: 2 * er}
	}
	buf := &dos.Buffer{Lateness: 2 * er * int(c.late%2)}
	var out oracleRun
	steps, epochs := 0, 1+int(c.eps)%8
	for e := 0; e < epochs; e++ {
		switch grow, shrink := nw.N()/2, nw.N()/3; {
		case c.churn%4 == 1:
			churn(nw, r, 0, 0)
		case c.churn%4 == 2 && 2*e < epochs, c.churn%4 == 3 && 2*e >= epochs:
			churn(nw, r, grow, 0)
		case c.churn%4 >= 2:
			churn(nw, r, 0, max(0, min(shrink, nw.N()-nw.N()/8-32)))
		}
		for i, er := 0, nw.EpochRounds(); i < er; i++ {
			if c.faults%4 == 3 && steps == int(c.at) {
				if c.faultArg&16 == 0 {
					nw.RepairBalance()
				} else {
					nw.RepairMembership()
				}
				checkOracle(t, nw)
			}
			steps++
			buf.Publish(nw.Snapshot())
			nw.Step(adv.SelectBlocked(nw.eng.Round+1, nw.N(), buf.View(nw.eng.Round+1)))
			if checkOracle(t, nw) {
				out.connected++
			} else {
				out.cut++
			}
			if nw.eng.Faults.Components(nw.eng.Round) > 1 {
				out.open++
			}
			for v, x := range nw.eng.NodeGroup {
				if x >= 0 && int(nw.eng.ViewEpoch[v]) < nw.eng.Epoch && !nw.eng.BlockedAgo(int32(v), 0) {
					out.staleAlive++
				}
			}
		}
		_, views := nw.eng.Views()
		out.entries = max(out.entries, views)
	}
	out.stats = nw.StatsSnapshot()
	return out
}

// oracleCorpus holds the runs FuzzOracleMatchesReference starts from,
// each named for the state it reaches. Where reaching that state takes
// more than the differential, reaches says what else the run must see,
// so the entry cannot silently stop reaching it.
var oracleCorpus = []struct {
	name string
	oracleCase
	reaches func(oracleRun) string
}{
	{name: "random-blocking-0", oracleCase: oracleCase{31, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
	{name: "random-blocking-0.2", oracleCase: oracleCase{31, 0, 0, 51, 0, 0, 0, 0, 0, 1}},
	{name: "random-blocking-0.4", oracleCase: oracleCase{31, 0, 0, 102, 0, 0, 0, 0, 0, 1}},
	{name: "random-blocking-0.9", oracleCase: oracleCase{31, 0, 0, 230, 0, 0, 0, 0, 0, 1}},
	{name: "random-blocking-1", oracleCase: oracleCase{31, 0, 0, 255, 0, 0, 0, 0, 0, 1}},
	{name: "group-isolate-0-late", oracleCase: oracleCase{32, 64, 1, 102, 0, 0, 0, 0, 0, 2}, reaches: bothVerdicts},
	{name: "group-isolate-2-late", oracleCase: oracleCase{32, 0, 1, 102, 1, 0, 0, 0, 0, 2}, reaches: neverCut},
	{name: "churn-split-merge", oracleCase: oracleCase{33, 0, 4, 96, 0, 2, 0, 0, 0, 2}, reaches: splitMergeStale},
	{name: "partition-window-k2", oracleCase: oracleCase{34, 0, 0, 51, 0, 1, 2, 20, 0, 2}, reaches: cutWhileOpen},
	{name: "partition-window-k3", oracleCase: oracleCase{34, 0, 0, 51, 0, 1, 2, 21, 0, 2}, reaches: cutWhileOpen},
	{name: "corrupt-state", oracleCase: oracleCase{35, 0, 0, 3, 0, 0, 3, 5, 30, 3}},
	// Joiners pending and a RepairBalance after 12 Steps: between the
	// assignment round and the install of a 16-round epoch.
	{name: "repair-in-window", oracleCase: oracleCase{3, 0, 0, 0, 0, 2, 3, 0, 12, 1}},
}

// bothVerdicts: a run that must show the differential on connected and
// on cut rounds.
func bothVerdicts(r oracleRun) string {
	if r.connected == 0 || r.cut == 0 {
		return fmt.Sprintf("%d connected and %d cut rounds, want both", r.connected, r.cut)
	}
	return ""
}

// neverCut: a 2-epoch-late adversary's picture is obsolete, so it cannot
// cut the network.
func neverCut(r oracleRun) string {
	if r.cut > 0 {
		return fmt.Sprintf("%d rounds cut under a 2-epoch-late adversary", r.cut)
	}
	return ""
}

// cutWhileOpen: every round of an open partition window is cut.
func cutWhileOpen(r oracleRun) string {
	if r.open == 0 || r.cut < r.open {
		return fmt.Sprintf("%d cut rounds with a partition window open for %d", r.cut, r.open)
	}
	return ""
}

// splitMergeStale: churn across splits and merges with alive stale views
// that name at least three history entries, and cut rounds, so the
// partition depends on views of epochs with other supernode counts,
// other adjacency and members that have since left.
func splitMergeStale(r oracleRun) string {
	st := r.stats
	if st.Splits == 0 || st.Merges+st.ForcedMerges == 0 || r.staleAlive == 0 || r.cut == 0 || r.entries < 3 {
		return fmt.Sprintf("%d splits, %d merges, %d alive stale views, %d cut rounds and at most %d history entries, want all five",
			st.Splits, st.Merges+st.ForcedMerges, r.staleAlive, r.cut, r.entries)
	}
	return ""
}

// FuzzOracleMatchesReference is the differential test of the oracle on
// generated runs (oracleCase.run).
func FuzzOracleMatchesReference(f *testing.F) {
	for _, e := range oracleCorpus {
		c := e.oracleCase
		f.Add(c.seed, c.n, c.kind, c.frac, c.late, c.churn, c.faults, c.faultArg, c.at, c.eps)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, kind, frac, late, churn, faults, faultArg, at, eps uint8) {
		oracleCase{seed, n, kind, frac, late, churn, faults, faultArg, at, eps}.check(t)
	})
}

// check runs c and, if c is a corpus entry with a reaches check, that
// check.
func (c oracleCase) check(t *testing.T) {
	got := c.run(t)
	for _, e := range oracleCorpus {
		if e.oracleCase == c && e.reaches != nil {
			if msg := e.reaches(got); msg != "" {
				t.Fatalf("corpus entry %q: %s", e.name, msg)
			}
		}
	}
}

// checkEntry runs the named corpus entry as a test of its own.
func checkEntry(t *testing.T, name string) {
	for _, e := range oracleCorpus {
		if e.name == name {
			e.oracleCase.check(t)
			return
		}
	}
	t.Fatalf("no corpus entry %q", name)
}

// The three oracle tests below keep, under their names, one corpus entry
// of each scenario family: Random blocking, a GroupIsolate that sees both
// verdicts, and a partition window that cuts every open round.
func TestOracleMatchesReferenceRandomBlocking(t *testing.T) {
	t.Run("0", func(t *testing.T) { checkEntry(t, "random-blocking-0") })
}

func TestOracleMatchesReferenceGroupIsolate(t *testing.T) {
	t.Run("late=false", func(t *testing.T) { checkEntry(t, "group-isolate-0-late") })
}

func TestOracleMatchesReferencePartitionWindow(t *testing.T) {
	t.Run("k=2", func(t *testing.T) { checkEntry(t, "partition-window-k2") })
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
