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
// executed semantically, by the same engine (internal/committee): blocked
// history, leaders, the primitive over the 2^Dmax virtual vertices, the
// S(x) catch-up, the epoch history and the connectivity oracle. What is
// here is what Section 6 adds: the label tree with Join and Leave, the
// per-epoch tables from virtual vertex to owning supernode, the coin
// fill, the assignment of stayers and joiners to the owners of sampled
// vertices, and the commit with its split/merge normalization. Slots
// (slot = id−1) are allocated once at Join and go dead on Leave; every
// arena is reused across rounds and epochs, so Step allocates nothing in
// churn-free steady state, and results are byte-identical at any worker
// count (see DESIGN.md).
package splitmerge

import (
	"fmt"
	"math"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/committee"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
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
type RoundReport struct {
	Round     int
	Epoch     int
	Blocked   int
	Connected bool
	Measured  bool
	Stalls    int
}

type super struct {
	label   hypercube.Label
	members []sim.NodeID // committed members, sorted
	pending []sim.NodeID // joiners waiting for the next commit
	// verts are the virtual vertices the group simulates this epoch: the
	// leaves of its label subtree in the dmax-cube as of prepareEpoch.
	verts []int32
}

// Network is the Section 6 overlay.
type Network struct {
	cfg    Config
	r      *rng.RNG
	supers []*super // sorted by label
	// eng runs the rounds: blocked history, leaders, the simulated
	// primitive over the 2^dmax virtual vertices, catch-up, epoch history
	// and the connectivity oracle. Its NodeGroup is this stack's
	// membership index: slot -> supers index, −1 when not committed.
	eng *committee.Engine

	// leaving is the global departure set (slot-indexed) with its id
	// list for the commit sweep. The serial code kept one map per
	// supernode and copied it through splits and merges; membership is
	// id-keyed, so one global set is equivalent and the copies vanish.
	leaving    sim.Bitset
	leavingIDs []sim.NodeID

	dmax   int
	mi     []int // sample budget schedule of the primitive, T+1 entries
	phase  int
	nextID sim.NodeID

	// Per-Step views of supers handed to the engine, and the arena the
	// supers' verts are carved from.
	members   [][]sim.NodeID
	verts     [][]int32
	vertArena []int32
	// vidOwner maps every dmax-bit virtual label to the supernode whose
	// label is a prefix of it (−1 in a coverage hole), replacing a
	// per-message label search. The engine's Owner is narrower: it names
	// that supernode only while it holds the vertex's state.
	vidOwner []int32

	pendingAssign [][]sim.NodeID
	pendingValid  bool
	stats         Stats

	// audit: optional invariant engine, ticked once per Step.
	audit *audit.Engine
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
	if cfg.MeasureEvery == 0 {
		cfg.MeasureEvery = 1
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	nw := &Network{cfg: cfg, r: rng.New(cfg.Seed)}
	d := 1
	for (1<<(d+1))*2*cfg.C*(d+1) < cfg.N0 {
		d++
	}
	for x := 0; x < 1<<d; x++ {
		nw.supers = append(nw.supers, &super{label: hypercube.MakeLabel(uint64(x), d)})
	}
	e := committee.New(cfg.Seed, cfg.Shards, nw.runShard)
	nw.eng = e
	e.Arity, e.Fill = 2, fill
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
	nw.indexMembers()
	nw.commitHistory()
	nw.prepareEpoch()
	return nw
}

// fill is the Phase-1 fill: every entry of virtual vertex w's list j is w
// with bit j−1 flipped by a fair coin, the low bit of one raw draw. What is
// stored is the bit the entry ends up with — the coin XOR w's own bit j−1 —
// so a set own bit complements the list (and the unread padding with it).
func fill(r *rng.RNG, w, j int, syms []uint64, m int) {
	r.PackBit(syms, m, 0)
	if w>>(j-1)&1 == 1 {
		for i := range syms {
			syms[i] = ^syms[i]
		}
	}
}

// growNodes extends every slot-indexed structure to cover n node slots
// (new slots are not members).
func (nw *Network) growNodes(n int) {
	nw.eng.Grow(n)
	nw.leaving = sim.GrowBitset(nw.leaving, n)
}

// Close releases the shard worker goroutines. The network must not be
// stepped afterwards. Networks that are simply dropped are cleaned up
// by a GC finalizer, so Close is an optimization, not an obligation.
func (nw *Network) Close() { nw.eng.Close() }

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

// Epoch returns the number of completed reorganizations.
func (nw *Network) Epoch() int { return nw.eng.Epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.eng.Round }

// StatsSnapshot returns the health counters.
func (nw *Network) StatsSnapshot() Stats { return nw.stats }

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

// GroupSizes returns the committed group sizes.
func (nw *Network) GroupSizes() []int {
	out := make([]int, len(nw.supers))
	for i, s := range nw.supers {
		out[i] = len(s.members)
	}
	return out
}

// Labels returns the current supernode labels (sorted).
func (nw *Network) Labels() []hypercube.Label {
	out := make([]hypercube.Label, len(nw.supers))
	for i, s := range nw.supers {
		out[i] = s.label
	}
	return out
}

// samplingRounds is the length of the epoch's sampling part: two real
// rounds per primitive round of the simulated primitive.
func (nw *Network) samplingRounds() int { return 2 * (2*len(nw.mi) - 1) }

// EpochRounds returns rounds per epoch: the sampling rounds plus four
// reorganization rounds and two organized split/merge rounds —
// Θ(log log n).
func (nw *Network) EpochRounds() int { return nw.samplingRounds() + 6 }

// Eq1Holds reports whether every supernode's size lies in the band the
// split/merge triggers maintain: c·d(x)−c ≤ |R(x)| ≤ 2c·d(x) (the
// closure of Equation (1); the paper splits only when the size exceeds
// the upper bound and merges only below the lower one).
func (nw *Network) Eq1Holds() bool {
	c := nw.cfg.C
	for _, s := range nw.supers {
		d := s.label.Dim()
		if len(s.members) < c*d-c || len(s.members) > 2*c*d {
			return false
		}
	}
	return true
}

// SetAudit attaches (or, with nil, detaches) an invariant engine. The
// registered checkers run every engine-tick against the committed
// topology: Equation (1)'s group-size band, Lemma 18's dimension
// spread, membership-index consistency, and connectivity of the
// non-blocked subgraph.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.audit = e
	if e == nil {
		return
	}
	e.Register("eq1-group-size", func() []audit.Violation {
		c := nw.cfg.C
		var out []audit.Violation
		for _, s := range nw.supers {
			d := s.label.Dim()
			if n := len(s.members); n < c*d-c || n > 2*c*d {
				out = append(out, audit.Violation{
					Detail: fmt.Sprintf("group %v (dim %d) has %d members, Equation (1) band is [%d, %d]",
						s.label, d, n, c*d-c, 2*c*d),
				})
			}
		}
		return out
	})
	e.Register("dim-spread", func() []audit.Violation {
		if min, max := nw.DimRange(); max-min > 2 {
			return []audit.Violation{{
				Detail: fmt.Sprintf("dimension spread %d exceeds Lemma 18 bound 2 (min %d, max %d)", max-min, min, max),
			}}
		}
		return nil
	})
	e.Register("membership", nw.checkMembership)
	e.Register("label-coverage", nw.checkLabelCoverage)
	e.Register("splitmerge-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: "non-blocked committed members are disconnected"}}
		}
		return nil
	})
}

// SetFaults installs a deterministic fault schedule (zero Spec
// disables). Message faults apply to the supernode request/response
// queues; the crash schedule composes into every round's blocked set.
func (nw *Network) SetFaults(spec fault.Spec) { nw.eng.SetFaults(spec) }

// SetLatency attaches the discrete-event latency model in virtual-round
// form (see supernode.Network.SetLatency): messages whose sampled delay
// exceeds one virtual round are dropped via fault.ComposeGate rather
// than re-ordered. A model that can never miss the deadline composes to
// the bare injector, leaving the run bit-for-bit unchanged. The zero
// value detaches.
func (nw *Network) SetLatency(lat sim.Latency) {
	if err := nw.eng.SetLatency(lat); err != nil {
		panic("splitmerge: " + err.Error())
	}
}

// checkMembership verifies that every committed member sits in exactly
// one group and that the nodeSuper index agrees with group membership.
func (nw *Network) checkMembership() []audit.Violation {
	var out []audit.Violation
	bad := func(id sim.NodeID, detail string) {
		if len(out) < 16 {
			out = append(out, audit.Violation{Nodes: []uint64{uint64(id)}, Detail: detail})
		}
	}
	seen := make([]int32, len(nw.eng.NodeGroup))
	for i := range seen {
		seen[i] = -1
	}
	for x, s := range nw.supers {
		for _, id := range s.members {
			if id < 1 || int(id) > len(seen) {
				bad(id, fmt.Sprintf("member id %d outside the allocated slot space", id))
				continue
			}
			if prev := seen[id-1]; prev >= 0 {
				bad(id, fmt.Sprintf("node %d appears in groups %d and %d", id, prev, x))
				continue
			}
			seen[id-1] = int32(x)
			if got := nw.eng.NodeGroup[id-1]; got != int32(x) {
				bad(id, fmt.Sprintf("nodeSuper index says %d for node %d, membership says %d", got, id, x))
			}
		}
	}
	for v := range nw.eng.NodeGroup {
		if nw.eng.NodeGroup[v] >= 0 && seen[v] < 0 {
			bad(sim.NodeID(v+1), fmt.Sprintf("node %d indexed but missing from every group", v+1))
		}
	}
	return out
}

// Join introduces a new node through the given sponsor and returns its
// id; the node becomes a full member at the next commit (the paper's
// O(log log n)-round join).
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
	nw.supers[x].pending = append(nw.supers[x].pending, id)
	return id
}

// Leave marks a member as leaving; it departs at the next commit (the
// paper's O(log log n)-round leave).
func (nw *Network) Leave(id sim.NodeID) {
	if nw.superOf(id) < 0 {
		panic(fmt.Sprintf("splitmerge: leaver %d is not a member", id))
	}
	if !nw.leaving.Test(int32(id - 1)) {
		nw.leaving.Set(int32(id - 1))
		nw.leavingIDs = append(nw.leavingIDs, id)
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

func (nw *Network) indexMembers() {
	for i := range nw.eng.NodeGroup {
		nw.eng.NodeGroup[i] = -1
	}
	for x, s := range nw.supers {
		slices.Sort(s.members)
		for _, id := range s.members {
			nw.eng.NodeGroup[id-1] = int32(x)
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

// ownerOf returns the supernode whose label is a prefix of the
// dmax-bit virtual label w, or -1. Backed by the per-epoch vidOwner
// table (rebuilt by fillVidTables after any structural mutation).
func (nw *Network) ownerOf(w int32) int {
	if int(w) < len(nw.vidOwner) {
		return int(nw.vidOwner[w])
	}
	return -1
}

// fillVidTables rebuilds the dense virtual-vertex tables for the
// current dmax: vidOwner maps every dmax-bit label to the deepest
// supernode whose label is a prefix of it (the serial ownerOf search
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
	T := 0
	for v := 1; v < nw.dmax; v <<= 1 {
		T++
	}
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
	cSamp := float64(2*maxNeed) / float64(nw.dmax)
	if cSamp < 1 {
		cSamp = 1
	}
	nw.mi = slices.Grow(nw.mi[:0], T+1)[:T+1]
	for i := range nw.mi {
		nw.mi[i] = int(math.Ceil(math.Pow(1+nw.cfg.Epsilon, float64(T-i)) * cSamp * float64(nw.dmax)))
	}
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

// The stack's own worker phases (committee.Engine.Each).
const (
	phaseAssign = iota
	phaseGather
	phaseCatchUp
)

func (nw *Network) runShard(phase, w int) {
	switch phase {
	case phaseAssign:
		nw.assignRange(w)
	case phaseGather:
		nw.gatherRange(w)
	case phaseCatchUp:
		nw.catchUpRange(w)
	}
}

// Step executes one round under the given blocked set. The map is
// copied into owned bitset storage; the caller may reuse or mutate it
// freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	e := nw.eng
	nw.viewSupers()
	e.Begin(blocked, nw.members, nw.verts)
	rep := RoundReport{Round: e.Round, Epoch: e.Epoch, Blocked: e.Blocked, Connected: true}

	switch sampling := nw.samplingRounds(); {
	case nw.phase < sampling:
		if nw.phase%2 == 0 {
			e.Sample(nw.phase / 2)
		}
	case nw.phase == sampling:
		nw.assignRound()
	case nw.phase == sampling+5:
		// Phases +1..+4 are the reorganization's gather/share and
		// distribute rounds plus the organized split/merge (O(1)
		// rounds, Lemma 18); the new topology takes effect atomically
		// in the epoch's final round, when the distribute messages
		// have reached every available node.
		nw.commitRound()
		nw.normalize()
		nw.indexMembers()
		nw.commitHistory()
		nw.prepareEpoch()
		nw.phase = -1 // the new epoch starts at phase 0
	}

	// Every-round S(x) broadcast: an available node with an available
	// group peer is up to date.
	e.Each(phaseCatchUp)

	c := e.End()
	rep.Stalls = c.Stalls
	nw.stats.Stalls += c.Stalls
	nw.stats.SampleFails += c.SampleFails
	nw.stats.AssignFails += c.AssignFails
	nw.stats.FaultDrops += c.FaultDrops
	nw.stats.FaultDups += c.FaultDups
	nw.stats.Crashes += c.Crashes
	nw.stats.Restarts += c.Restarts
	nw.stats.Messages += c.Messages

	nw.phase++
	nw.stats.Rounds++

	if nw.cfg.MeasureEvery > 0 && e.Round%nw.cfg.MeasureEvery == 0 {
		rep.Measured = true
		rep.Connected = nw.ConnectedNow()
		nw.stats.Measured++
		if !rep.Connected {
			nw.stats.Disconnected++
		}
	}
	nw.audit.SetEpoch(e.Epoch)
	nw.audit.Tick(e.Round)
	return rep
}

// viewSupers refreshes the per-committee views of supers the engine
// works from: member lists and simulated vertices, in label order.
func (nw *Network) viewSupers() {
	nw.members, nw.verts = nw.members[:0], nw.verts[:0]
	for _, s := range nw.supers {
		nw.members = append(nw.members, s.members)
		nw.verts = append(nw.verts, s.verts)
	}
}

// catchUpRange applies the S(x) broadcast over the worker's supers
// range, finding each node's peers through its group's member list.
func (nw *Network) catchUpRange(w int) {
	lo, hi := nw.eng.Chunk(len(nw.supers), w)
	for _, s := range nw.supers[lo:hi] {
		for _, id := range s.members {
			nw.eng.CatchUp(int32(id-1), s.members)
		}
	}
}

// assignRound reorganizes: each group's members (stayers plus pending
// joiners, sorted by id) are assigned to the owners of the sampled
// virtual vertices, i.e. to supernode y with probability 2^{−d(y)}.
func (nw *Network) assignRound() {
	nS := len(nw.supers)
	nw.pendingAssign = slices.Grow(nw.pendingAssign[:0], nS)[:nS]
	nw.eng.Each(phaseAssign)
	nw.eng.Each(phaseGather)
	nw.pendingValid = true
}

func (nw *Network) assignRange(w int) {
	e := nw.eng
	c := e.Cell(w)
	var assignees []sim.NodeID // scratch, reused from super to super
	var samples []int32
	lo, hi := e.Chunk(len(nw.supers), w)
	for si := lo; si < hi; si++ {
		s := nw.supers[si]
		assignees = assignees[:0]
		for _, id := range s.members {
			if !nw.leaving.Test(int32(id - 1)) {
				assignees = append(assignees, id)
			}
		}
		assignees = append(assignees, s.pending...)
		ld := e.Leaders[si]
		if ld < 0 {
			// Stalled group: cannot reorganize; everyone stays
			// (already counted as a stall).
			for _, id := range assignees {
				e.Route(w, int32(si), id)
			}
			continue
		}
		samples = samples[:0]
		for _, u := range s.verts {
			samples = append(samples, e.Samples[u]...)
		}
		rng.ShuffleSlice(&e.NodeR[ld], samples)
		for i, id := range assignees {
			var vw int32
			switch {
			case len(samples) == 0:
				c.AssignFails++
				vw = int32(s.label.Bits())
			case i < len(samples):
				vw = samples[i]
			default:
				c.AssignFails++
				vw = samples[i%len(samples)]
			}
			oi := nw.ownerOf(vw)
			if oi < 0 {
				c.AssignFails++
				oi = si
			}
			e.Route(w, int32(oi), id)
		}
	}
}

// gatherRange collects the worker's target groups' new members into the
// pending-assignment arena.
func (nw *Network) gatherRange(w int) {
	lo, hi := nw.eng.Chunk(len(nw.supers), w)
	for si := lo; si < hi; si++ {
		nw.pendingAssign[si] = nw.eng.Gather(w, si, nw.pendingAssign[si][:0])
	}
}

// commitRound installs the reorganized groups; joiners become members
// and leavers depart. The member arenas swap with the pending arenas,
// so churn-free commits allocate nothing.
func (nw *Network) commitRound() {
	if !nw.pendingValid {
		return
	}
	for _, id := range nw.leavingIDs {
		// Departed: the slot goes dead at the reindex below (it was
		// excluded from every new group); clear the departure mark.
		nw.leaving.Unset(int32(id - 1))
	}
	nw.leavingIDs = nw.leavingIDs[:0]
	for si, s := range nw.supers {
		s.members, nw.pendingAssign[si] = nw.pendingAssign[si], s.members
		s.pending = s.pending[:0]
	}
	nw.pendingValid = false
	nw.eng.Epoch++
	nw.stats.Epochs++
	nw.indexMembers()
}

// normalize enforces Equation (1) by splitting oversized and merging
// undersized supernodes (the organized O(1)-round procedure of
// Lemma 18). It also updates the dimension-spread and violation stats.
func (nw *Network) normalize() {
	c := nw.cfg.C
	for iter := 0; iter < 256; iter++ {
		changed := false
		// Splits first: |R(x)| > 2c·d(x) -> two children. Members are
		// shuffled and halved so each child receives a uniformly random
		// half; the even sizes guarantee neither child falls below the
		// merge trigger, which makes the normalization terminate.
		var next []*super
		for _, s := range nw.supers {
			d := s.label.Dim()
			if len(s.members)+len(s.pending) > 2*c*d && d < 60 {
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
			if d == 0 || len(s.members)+len(s.pending) >= c*d-c {
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
		if prefix.IsAncestorOf(s.label) || prefix.Equal(s.label) {
			acc.members = append(acc.members, s.members...)
			acc.pending = append(acc.pending, s.pending...)
		} else {
			next = append(next, s)
		}
	}
	nw.supers = append(next, acc)
	nw.sortSupers()
}

// commitHistory records the committed topology for the connectivity
// measurement and the adversary snapshots; the engine prunes the views no
// committed member still holds.
func (nw *Network) commitHistory() {
	nw.viewSupers()
	v := nw.eng.Commit(nw.members)
	nS := len(nw.supers)
	v.Adj = slices.Grow(v.Adj[:0], nS)[:nS]
	for i := range nw.supers {
		v.Adj[i] = v.Adj[i][:0]
		for j := range nw.supers {
			if i != j && hypercube.Connected(nw.supers[i].label, nw.supers[j].label) {
				v.Adj[i] = append(v.Adj[i], int32(j))
			}
		}
	}
}

// Snapshot publishes the current topology at supernode granularity.
// Groups and adjacency are copied: history arenas are recycled, and a
// dos.Buffer may retain the snapshot past this epoch's window.
func (nw *Network) Snapshot() *dos.Snapshot {
	h := nw.eng.ViewAt(nw.eng.Epoch)
	groups := make([][]sim.NodeID, len(h.Groups))
	for i, g := range h.Groups {
		groups[i] = append([]sim.NodeID(nil), g...)
	}
	adj := make([][]int32, len(h.Adj))
	for i, a := range h.Adj {
		adj[i] = append([]int32(nil), a...)
	}
	return &dos.Snapshot{Round: nw.eng.Round, Groups: groups, Adj: adj}
}

// ConnectedNow reports whether the non-blocked committed members form a
// connected graph under each node's (possibly stale) knowledge. While a
// partition window is open, cross-component knowledge edges are treated
// as down — no message can traverse them.
func (nw *Network) ConnectedNow() bool { return nw.eng.ConnectedNow() }

// Run drives the network under the adversary for the given rounds,
// publishing snapshots and enforcing the buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	return committee.Run[RoundReport](nw, nw.N, adv, buf, rounds)
}
