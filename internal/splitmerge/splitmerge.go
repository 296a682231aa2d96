// Package splitmerge implements the churn- and DoS-resistant overlay of
// Section 6: the supernode hypercube of Section 5 extended with
// variable-length supernode labels. Supernodes split and merge to keep
// every group size within Equation (1), c·d(x) − c < |R(x)| < 2c·d(x),
// under churn; Lemma 18 keeps the dimension spread |d(x) − d(y)| ≤ 2.
//
// The sampling primitive is modified as the paper prescribes — each
// supernode is chosen with probability 2^{−d(x)} — by running the
// hypercube primitive over VIRTUAL vertices: every supernode simulates
// the 2^{Dmax−d(x)} leaves of its label subtree in the Dmax-cube, where
// Dmax is the maximum current dimension. A uniform Dmax-bit sample then
// lands on supernode x with probability exactly 2^{−d(x)}. Since Dmax
// need not be a power of two, the pointer-doubling runs the ragged
// variant: a list whose extension block would exceed Dmax simply
// carries over, already complete.
//
// As in package supernode, the replicated group-state machine is
// executed semantically, by the same loop (internal/committee): the epoch
// schedule, blocked history, leaders, the primitive over the 2^Dmax
// virtual vertices, the reassignment and its commit, the S(x) catch-up,
// the epoch history, the connectivity oracle and the running totals. What
// is here is what Section 6 adds: the label tree with Join and Leave, the
// per-epoch tables from virtual vertex to owning supernode (which also
// give the adjacency), the hooks that assign stayers and joiners to the
// owners of sampled vertices after a shuffle, and the split/merge
// normalization each commit runs. Slots (slot = id−1) are allocated once at
// Join and go dead on Leave; every arena is reused across rounds and
// epochs, so Step allocates nothing in churn-free steady state, and
// results are byte-identical at any worker count (see DESIGN.md).
package splitmerge

import (
	"fmt"
	"math"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/committee"
	"overlaynet/internal/dos"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Config configures the Section 6 network.
type Config struct {
	Seed uint64
	// N0 is the initial node count.
	N0 int
	// C is Equation (1)'s constant c (default 4).
	C int
	// Epsilon is the sampling budget slack (default 1).
	Epsilon float64
	// MeasureEvery controls connectivity measurement (1 = every round,
	// negative = never).
	MeasureEvery int
	// Shards is the intra-round worker count (0 consults the
	// OVERLAYNET_SHARDS environment variable, then 1). Results are
	// byte-identical at any value.
	Shards int
}

// Validate reports whether the configuration is usable, so CLIs can
// turn bad flag values into error messages instead of stack traces.
// New still panics on the same conditions.
func (cfg Config) Validate() error {
	c := cfg.C
	if c == 0 {
		c = 4
	}
	if c < 0 {
		return fmt.Errorf("splitmerge: group-size constant %d must be positive", c)
	}
	if !(cfg.Epsilon >= 0 && cfg.Epsilon < math.Inf(1)) {
		return fmt.Errorf("splitmerge: epsilon %g must be finite and positive", cfg.Epsilon)
	}
	if cfg.N0 < 8*c {
		return fmt.Errorf("splitmerge: n0 = %d too small for c = %d (need at least %d)", cfg.N0, c, 8*c)
	}
	return nil
}

// Stats aggregates protocol health counters.
type Stats struct {
	Rounds       int
	Epochs       int
	Stalls       int // group-without-available-member events
	SampleFails  int // multiset underflow in the simulated primitive
	AssignFails  int // members beyond the sample budget
	Splits       int
	Merges       int
	ForcedMerges int // subtree merges forced by a missing sibling
	Disconnected int
	Measured     int
	// MaxDimSpread is the largest observed max−min dimension
	// difference (Lemma 18: ≤ 2).
	MaxDimSpread int
	// Eq1Violations counts supernodes violating Equation (1) after a
	// completed split/merge normalization.
	Eq1Violations int
	FaultDrops    int // supernode messages lost to injected faults
	FaultDups     int // supernode messages duplicated by injected faults
	Crashes       int // node-crash events from the fault schedule
	Restarts      int // crashed nodes that came back
	// Messages counts supernode-level protocol messages (sampling
	// requests/responses and reorganization assignments) — the work
	// measure behind the scale experiment's bytes/node-round column.
	Messages int64
}

// RoundReport summarizes one round.
type RoundReport = committee.Report

type super struct {
	label   hypercube.Label
	members []sim.NodeID // committed members, sorted
	pending []sim.NodeID // joiners waiting for the next commit
	// verts are the virtual vertices the group simulates this epoch: the
	// leaves of its label subtree in the dmax-cube as of prepareEpoch.
	verts []int32
}

// Network is the Section 6 overlay. The embedded Loop runs its rounds,
// reorganization included, and provides Step, Round, Epoch, EpochRounds,
// GroupSizes, Close, SetFaults, SetLatency, ConnectedNow and
// KnowledgeComponents.
type Network struct {
	*committee.Loop
	cfg    Config
	r      *rng.RNG
	supers []*super // sorted by label
	// eng is the Loop's engine: blocked history, leaders, the simulated
	// primitive over the 2^dmax virtual vertices, epoch history and the
	// connectivity oracle. Its NodeGroup is this stack's membership
	// index: slot -> supers index, −1 when not committed.
	eng *committee.Engine

	// leaving is the global departure set (slot-indexed) with its id
	// list for the commit sweep. The serial code kept one map per
	// supernode and copied it through splits and merges; membership is
	// id-keyed, so one global set is equivalent and the copies vanish.
	// lateIDs are the leavers that came after the assignment: the
	// reorganization routed them as stayers, so they depart a commit later.
	leaving    sim.Bitset
	leavingIDs []sim.NodeID
	lateIDs    []sim.NodeID

	dmax   int
	mi     []int // sample budget schedule of the primitive, T+1 entries
	nextID sim.NodeID

	// Per-Step views of supers handed to the engine, and the arena the
	// supers' verts are carved from.
	members   [][]sim.NodeID
	verts     [][]int32
	vertArena []int32
	// vidOwner maps every dmax-bit virtual label to the supernode whose
	// label is a prefix of it (−1 in a coverage hole): the committee a node
	// sent to that vertex joins, and the adjacency's lookup. The engine's
	// Owner is narrower: it names that supernode only while it holds the
	// vertex's state.
	vidOwner []int32

	// stats holds the counters the Loop's totals do not: splits, merges
	// and the normalization's health.
	stats Stats

	// pub is the copy of the committed view the DoS snapshots share. Only
	// a commit writes a view, so nothing else invalidates it.
	pub committee.Publication
}

// New builds the initial network: the label tree starts at the unique
// dimension d with 2^d·2cd < n ≤ 2^{d+1}·2c(d+1) (Lemma 18), nodes are
// assigned uniformly, and a split/merge normalization enforces
// Equation (1).
func New(cfg Config) *Network {
	if cfg.C == 0 {
		cfg.C = 4
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nw := &Network{cfg: cfg, r: rng.New(cfg.Seed)}
	d := 1
	for _, hi := nw.eq1Band(d + 1); (1<<(d+1))*hi < cfg.N0; _, hi = nw.eq1Band(d + 1) {
		d++
	}
	for x := 0; x < 1<<d; x++ {
		nw.supers = append(nw.supers, &super{label: hypercube.MakeLabel(uint64(x), d)})
	}
	e := committee.New(cfg.Seed, cfg.Shards)
	nw.eng = e
	// The reorganization sends every stayer and joiner to the owner of a
	// sampled virtual vertex, i.e. to supernode y with probability
	// 2^{−d(y)}, and the leader shuffles the samples its vertices pooled.
	nw.Loop = committee.NewLoop(e, cfg.MeasureEvery, committee.Hooks{
		// Four reorganization rounds and two of organized split/merge.
		Reorg:      6,
		Committees: nw.viewSupers,
		Assignees:  nw.assignees,
		Target:     func(v int32) int32 { return nw.vidOwner[v] },
		Shuffle:    true,
		Install:    nw.install,
		Adj:        nw.adjacency,
		Prepare:    nw.prepareEpoch,
	})
	e.Arity = 2
	e.RespFrom = 1 + 1<<32 // past the 32-bit virtual-label space
	nw.growNodes(cfg.N0)
	for v := 0; v < cfg.N0; v++ {
		id := sim.NodeID(v + 1)
		e.NodeR[v] = *nw.r.Split(uint64(id))
		x := nw.r.Intn(len(nw.supers))
		nw.supers[x].members = append(nw.supers[x].members, id)
	}
	nw.nextID = sim.NodeID(cfg.N0 + 1)

	nw.normalize()
	nw.Commit()
	return nw
}

// growNodes extends every slot-indexed structure to cover n node slots
// (new slots are not members).
func (nw *Network) growNodes(n int) {
	nw.eng.Grow(n)
	nw.leaving = sim.GrowBitset(nw.leaving, n)
}

// superOf returns the supers index of a committed member, −1 otherwise.
func (nw *Network) superOf(id sim.NodeID) int32 {
	if id < 1 || int(id) > len(nw.eng.NodeGroup) {
		return -1
	}
	return nw.eng.NodeGroup[id-1]
}

// N returns the committed member count.
func (nw *Network) N() int {
	n := 0
	for _, s := range nw.supers {
		n += len(s.members)
	}
	return n
}

// NumSupers returns the current supernode count.
func (nw *Network) NumSupers() int { return len(nw.supers) }

// StatsSnapshot returns the health counters.
func (nw *Network) StatsSnapshot() Stats {
	st, t := nw.stats, nw.Totals()
	st.Rounds, st.Epochs = t.Rounds, nw.Epoch()
	st.Stalls, st.SampleFails, st.AssignFails = t.Stalls, t.SampleFails, t.AssignFails
	st.Disconnected, st.Measured = t.Disconnected, t.Measured
	st.FaultDrops, st.FaultDups, st.Crashes, st.Restarts = t.FaultDrops, t.FaultDups, t.Crashes, t.Restarts
	st.Messages = t.Messages
	return st
}

// DimRange returns the minimum and maximum supernode dimensions.
func (nw *Network) DimRange() (min, max int) {
	min, max = 64, 0
	for _, s := range nw.supers {
		d := s.label.Dim()
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return
}

// Labels returns the current supernode labels (sorted).
func (nw *Network) Labels() []hypercube.Label {
	out := make([]hypercube.Label, len(nw.supers))
	for i, s := range nw.supers {
		out[i] = s.label
	}
	return out
}

// eq1Band is Equation (1)'s size band for a dimension-d supernode,
// c·d−c ≤ |R(x)| ≤ 2c·d (its closure: the paper splits only when the
// size exceeds the upper bound and merges only below the lower one).
// The eq1-group-size checker, Eq1Holds and normalize's split and merge
// triggers all read it.
func (nw *Network) eq1Band(d int) (lo, hi int) {
	c := nw.cfg.C
	return c*d - c, 2 * c * d
}

// checkEq1 is the eq1-group-size checker: one violation per committed
// group outside its eq1Band.
func (nw *Network) checkEq1() []audit.Violation {
	var out []audit.Violation
	for _, s := range nw.supers {
		d, n := s.label.Dim(), len(s.members)
		if lo, hi := nw.eq1Band(d); n < lo || n > hi {
			out = append(out, audit.Violation{
				Detail: fmt.Sprintf("group %v (dim %d) has %d members, Equation (1) band is [%d, %d]",
					s.label, d, n, lo, hi),
			})
		}
	}
	return out
}

// Eq1Holds reports whether every committed group's size lies in its
// Equation (1) band: the eq1-group-size checker finds nothing.
func (nw *Network) Eq1Holds() bool { return nw.checkEq1() == nil }

// SetAudit attaches (or, with nil, detaches) an invariant engine. The
// registered checkers run every engine-tick against the committed
// topology: Equation (1)'s group-size band, Lemma 18's dimension
// spread, membership-index consistency, and connectivity of the
// non-blocked subgraph.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.Loop.SetAudit(e)
	if e == nil {
		return
	}
	e.Register("eq1-group-size", nw.checkEq1)
	e.Register("dim-spread", func() []audit.Violation {
		if min, max := nw.DimRange(); max-min > 2 {
			return []audit.Violation{{
				Detail: fmt.Sprintf("dimension spread %d exceeds Lemma 18 bound 2 (min %d, max %d)", max-min, min, max),
			}}
		}
		return nil
	})
	e.Register("membership", func() []audit.Violation {
		members, _ := nw.viewSupers()
		return nw.eng.CheckPartition(members)
	})
	e.Register("label-coverage", nw.checkLabelCoverage)
	e.Register("splitmerge-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: "non-blocked committed members are disconnected"}}
		}
		return nil
	})
}

// Join introduces a new node through the given sponsor and returns its
// id; the node becomes a full member at the next commit (the paper's
// O(log log n)-round join), or at the one after when this epoch's
// assignment has already run. Its view epoch is the epoch whose
// reorganization places it, so install tells the two apart.
func (nw *Network) Join(sponsor sim.NodeID) sim.NodeID {
	x := nw.superOf(sponsor)
	if x < 0 {
		panic(fmt.Sprintf("splitmerge: sponsor %d is not a member", sponsor))
	}
	id := nw.nextID
	nw.nextID++
	nw.growNodes(int(id))
	nw.eng.NodeR[id-1] = *nw.r.Split(uint64(id))
	nw.eng.ViewEpoch[id-1] = int32(nw.eng.Epoch)
	if nw.Assigned() {
		nw.eng.ViewEpoch[id-1]++
	}
	nw.supers[x].pending = append(nw.supers[x].pending, id)
	return id
}

// Leave marks a member as leaving; it departs at the next commit (the
// paper's O(log log n)-round leave), or at the one after when this
// epoch's assignment has already run.
func (nw *Network) Leave(id sim.NodeID) {
	if nw.superOf(id) < 0 {
		panic(fmt.Sprintf("splitmerge: leaver %d is not a member", id))
	}
	if !nw.leaving.Test(int32(id - 1)) {
		nw.leaving.Set(int32(id - 1))
		if nw.Assigned() {
			nw.lateIDs = append(nw.lateIDs, id)
		} else {
			nw.leavingIDs = append(nw.leavingIDs, id)
		}
	}
}

// Members returns the committed member ids, sorted (slot order is id
// order).
func (nw *Network) Members() []sim.NodeID {
	out := make([]sim.NodeID, 0, nw.N())
	for v, x := range nw.eng.NodeGroup {
		if x >= 0 {
			out = append(out, sim.NodeID(v+1))
		}
	}
	return out
}

// ReplaceMembers churns k members at the next commit: k distinct members
// drawn uniformly are marked leaving, then k joiners enter, each through
// a uniformly drawn sponsor that is not leaving. k is clamped so that at
// least 8 members stay to sponsor. Every attempt, rejected or not, is one
// r.Intn(len(members)) — leavers first, then sponsors.
func (nw *Network) ReplaceMembers(r *rng.RNG, k int) {
	members := nw.Members()
	k = min(k, len(members)-8)
	gone := map[sim.NodeID]bool{}
	for len(gone) < k {
		id := members[r.Intn(len(members))]
		if !gone[id] {
			gone[id] = true
			nw.Leave(id)
		}
	}
	for i := 0; i < k; i++ {
		for {
			s := members[r.Intn(len(members))]
			if !gone[s] {
				nw.Join(s)
				break
			}
		}
	}
}

// sortSupers keeps the label order invariant used by findLabel.
func (nw *Network) sortSupers() {
	slices.SortFunc(nw.supers, func(a, b *super) int {
		if a.label.Less(b.label) {
			return -1
		}
		if b.label.Less(a.label) {
			return 1
		}
		return 0
	})
}

func (nw *Network) findLabel(l hypercube.Label) int {
	lo, hi := 0, len(nw.supers)
	for lo < hi {
		mid := (lo + hi) / 2
		if nw.supers[mid].label.Less(l) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nw.supers) && nw.supers[lo].label.Equal(l) {
		return lo
	}
	return -1
}

// fillVidTables rebuilds the dense virtual-vertex tables for the
// current dmax: vidOwner maps every dmax-bit label to the deepest
// supernode whose label is a prefix of it (the serial label search
// order — supers are sorted by (dim, bits), so scanning in order lets
// deeper labels overwrite shallower ones), and the engine's Owner names
// that supernode only where it also simulates the vertex. After a
// corruption or a mid-epoch repair it may not: messages to such a vertex
// are dropped, as the serial scan dropped them.
func (nw *Network) fillVidTables() {
	nVid := 1 << nw.dmax
	nw.vidOwner = slices.Grow(nw.vidOwner[:0], nVid)[:nVid]
	owner := nw.eng.Owner
	for w := range nw.vidOwner {
		nw.vidOwner[w] = -1
		owner[w] = -1
	}
	for si, s := range nw.supers {
		d := s.label.Dim()
		if d > nw.dmax {
			continue
		}
		base := int(s.label.Bits())
		for k := 0; k < 1<<(nw.dmax-d); k++ {
			nw.vidOwner[base|k<<d] = int32(si)
		}
	}
	for si, s := range nw.supers {
		for _, w := range s.verts {
			if nw.vidOwner[w] == int32(si) {
				owner[w] = int32(si)
			}
		}
	}
}

// prepareEpoch sets up the virtual-vertex sampling state for the new
// label tree, reusing the previous epoch's arenas.
func (nw *Network) prepareEpoch() {
	_, nw.dmax = nw.DimRange()
	// The final per-virtual-vertex sample count times the owned virtual
	// vertices must cover the group (plus joiners) with slack.
	maxNeed := 1
	for _, s := range nw.supers {
		need := len(s.members) + len(s.pending)
		own := 1 << (nw.dmax - s.label.Dim())
		if per := (need + own - 1) / own; per > maxNeed {
			maxNeed = per
		}
	}
	nw.mi = committee.Budgets(nw.mi, nw.dmax, nw.cfg.Epsilon, float64(2*maxNeed)/float64(nw.dmax))
	// Every supernode simulates the leaves of its label subtree.
	arena := slices.Grow(nw.vertArena[:0], 1<<nw.dmax)
	for _, s := range nw.supers {
		lo, d := len(arena), s.label.Dim()
		for k := 0; k < 1<<(nw.dmax-d); k++ {
			arena = append(arena, int32(int(s.label.Bits())|k<<d))
		}
		s.verts = arena[lo:len(arena):len(arena)]
	}
	nw.vertArena = arena
	nw.eng.Reset(1<<nw.dmax, nw.dmax, nw.mi)
	nw.fillVidTables()
}

// viewSupers refreshes and returns the per-committee views of supers the
// engine works from: member lists and simulated vertices, in label order.
func (nw *Network) viewSupers() ([][]sim.NodeID, [][]int32) {
	nw.members, nw.verts = nw.members[:0], nw.verts[:0]
	for _, s := range nw.supers {
		nw.members = append(nw.members, s.members)
		nw.verts = append(nw.verts, s.verts)
	}
	return nw.members, nw.verts
}

// assignees appends to dst whom supernode si reassigns: its members that
// are not leaving, then its pending joiners.
func (nw *Network) assignees(si int, dst []sim.NodeID) []sim.NodeID {
	s := nw.supers[si]
	for _, id := range s.members {
		if !nw.leaving.Test(int32(id - 1)) {
			dst = append(dst, id)
		}
	}
	return append(dst, s.pending...)
}

// install is the epoch's final round. The rounds between the assignment
// and it are the reorganization's gather/share and distribute rounds plus
// the organized split/merge (O(1) rounds, Lemma 18); the new topology takes
// effect atomically here, when the distribute messages have reached every
// available node. Joiners become members, leavers depart (their slots go
// dead), and the groups are normalized; churn that came after the
// assignment waits for the next epoch's commit. The member arrays swap
// with the gathered ones, so churn-free commits allocate nothing. A
// RepairBalance between the assignment and here can split or merge
// groups: when the committee count no longer matches the gathered
// groups', they cannot be applied by position, so the repaired groups
// stand instead, each keeping its stayers and taking in its joiners, and
// the next epoch reorganizes them.
func (nw *Network) install(next [][]sim.NodeID) [][]sim.NodeID {
	for _, id := range nw.leavingIDs {
		nw.leaving.Unset(int32(id - 1))
		nw.eng.NodeGroup[id-1] = -1
	}
	nw.leavingIDs, nw.lateIDs = append(nw.leavingIDs[:0], nw.lateIDs...), nw.lateIDs[:0]
	if len(next) != len(nw.supers) {
		departed := func(id sim.NodeID) bool { return nw.eng.NodeGroup[id-1] < 0 }
		for _, s := range nw.supers {
			s.members = append(slices.DeleteFunc(s.members, departed), s.pending...)
			s.pending = s.pending[:0]
		}
	} else {
		routed := func(id sim.NodeID) bool { return nw.eng.ViewEpoch[id-1] < int32(nw.eng.Epoch) }
		for si, s := range nw.supers {
			s.members, next[si] = next[si], s.members
			s.pending = slices.DeleteFunc(s.pending, routed)
		}
	}
	nw.normalize()
	return next
}

// normalize enforces Equation (1) by splitting oversized and merging
// undersized supernodes (the organized O(1)-round procedure of
// Lemma 18). It also updates the dimension-spread and violation stats.
func (nw *Network) normalize() {
	for iter := 0; iter < 256; iter++ {
		changed := false
		// Splits first: |R(x)| > 2c·d(x) -> two children. Members are
		// shuffled and halved so each child receives a uniformly random
		// half; the even sizes guarantee neither child falls below the
		// merge trigger, which makes the normalization terminate.
		var next []*super
		for _, s := range nw.supers {
			d := s.label.Dim()
			if _, hi := nw.eq1Band(d); len(s.members)+len(s.pending) > hi && d < 60 {
				nw.stats.Splits++
				changed = true
				a := &super{label: s.label.Child(0)}
				b := &super{label: s.label.Child(1)}
				var r *rng.RNG
				if len(s.members) > 0 {
					r = &nw.eng.NodeR[s.members[0]-1]
				} else {
					r = nw.r
				}
				ms := append([]sim.NodeID(nil), s.members...)
				rng.ShuffleSlice(r, ms)
				a.members = append(a.members, ms[:len(ms)/2]...)
				b.members = append(b.members, ms[len(ms)/2:]...)
				ps := append([]sim.NodeID(nil), s.pending...)
				rng.ShuffleSlice(r, ps)
				a.pending = append(a.pending, ps[:len(ps)/2]...)
				b.pending = append(b.pending, ps[len(ps)/2:]...)
				next = append(next, a, b)
			} else {
				next = append(next, s)
			}
		}
		nw.supers = next
		nw.sortSupers()

		// Merges: |R(x)| ≤ c·d(x) − c -> absorb the sibling (forcing
		// the sibling's subtree to merge first if it was split).
		merged := false
		for i := 0; i < len(nw.supers); i++ {
			s := nw.supers[i]
			d := s.label.Dim()
			if lo, _ := nw.eq1Band(d); d == 0 || len(s.members)+len(s.pending) >= lo {
				continue
			}
			sib := s.label.Sibling()
			lbl := s.label
			j := nw.findLabel(sib)
			if j < 0 {
				// The sibling was split: merge its whole subtree first,
				// then fall through to the sibling merge below. Stopping
				// after the subtree merge would never converge when the
				// re-assembled sibling is itself above the split
				// threshold — the next iteration's split pass would undo
				// it and the undersized group would starve forever.
				nw.mergeSubtree(sib)
				nw.stats.ForcedMerges++
				j = nw.findLabel(sib)
				i = nw.findLabel(lbl) // indices shifted by the subtree merge
			}
			if i >= 0 && j >= 0 {
				nw.mergeInto(i, j)
				nw.stats.Merges++
			}
			merged = true
			break // indices shifted; restart the scan
		}
		if merged {
			changed = true
		}
		if !changed {
			break
		}
	}
	min, max := nw.DimRange()
	if spread := max - min; spread > nw.stats.MaxDimSpread {
		nw.stats.MaxDimSpread = spread
	}
	if !nw.Eq1Holds() {
		nw.stats.Eq1Violations++
	}
}

// mergeInto merges supers[i] and supers[j] (siblings) into their parent.
func (nw *Network) mergeInto(i, j int) {
	a, b := nw.supers[i], nw.supers[j]
	parent := &super{
		label:   a.label.Parent(),
		members: append(append([]sim.NodeID(nil), a.members...), b.members...),
		pending: append(append([]sim.NodeID(nil), a.pending...), b.pending...),
	}
	var next []*super
	for k, s := range nw.supers {
		if k != i && k != j {
			next = append(next, s)
		}
	}
	nw.supers = append(next, parent)
	nw.sortSupers()
}

// mergeSubtree collapses every supernode whose label has the given
// prefix into a single supernode with that label.
func (nw *Network) mergeSubtree(prefix hypercube.Label) {
	acc := &super{label: prefix}
	var next []*super
	for _, s := range nw.supers {
		if within(prefix, s.label) {
			acc.members = append(acc.members, s.members...)
			acc.pending = append(acc.pending, s.pending...)
		} else {
			next = append(next, s)
		}
	}
	nw.supers = append(next, acc)
	nw.sortSupers()
}

// adjacency returns the committee adjacency of the label tree, built in
// arena: supernodes are adjacent when their labels differ in exactly one
// of the bits both have (hypercube.Connected). Across bit b of x's label,
// x's neighbours are the owners of the subtree of x's label with b
// flipped. That is exact for a prefix-free label set, holes included: an
// owner above the flipped label has more than b bits, else it would be a
// prefix of x's label. Each list is ascending. It reads vidOwner, so
// prepareEpoch has run.
func (nw *Network) adjacency(arena [][]int32) [][]int32 {
	nS := len(nw.supers)
	arena = slices.Grow(arena[:0], nS)[:nS]
	for i, s := range nw.supers {
		a, d := arena[i][:0], s.label.Dim()
		for b := 0; b < d; b++ {
			flip := int(s.label.Bits() ^ 1<<b)
			for k := 0; k < 1<<(nw.dmax-d); k++ {
				if o := nw.vidOwner[flip|k<<d]; o >= 0 {
					a = append(a, o)
				}
			}
		}
		slices.Sort(a)
		arena[i] = slices.Compact(a)
	}
	return arena
}

// Snapshot publishes the current epoch's committed view at supernode
// granularity. Groups and adjacency are copied, since history arenas are
// recycled and a dos.Buffer may retain the snapshot past this epoch's
// window, but once per commit: every snapshot of one view shares the copy
// (committee.Publication).
func (nw *Network) Snapshot() *dos.Snapshot {
	return nw.pub.Snapshot(nw.Loop, func() ([][]sim.NodeID, [][]int32) {
		h := nw.eng.ViewAt(nw.eng.Epoch)
		return committee.CloneLists(h.Groups), committee.CloneLists(h.Adj)
	})
}

// Run drives the network under the adversary for the given rounds,
// publishing snapshots and enforcing the buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	return committee.Run[RoundReport](nw, nw.N, adv, buf, rounds)
}
