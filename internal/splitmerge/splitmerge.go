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
// executed semantically: the group's adopted state is computed with the
// randomness of its lowest-id available member, groups with no
// available member stall, and per-node staleness feeds the
// connectivity measurement.
//
// Scale layout (see DESIGN.md): per-node state is dense and
// slot-indexed (slot = id−1; ids grow monotonically under churn, so a
// slot is allocated once at Join and marked dead on Leave) — per-node
// RNGs as a flat []rng.RNG, the membership index and view epochs as
// int32 slices, and the blocked history, leaving set, and crash set as
// sim.Bitset. The virtual-vertex label search of the serial code is
// replaced by per-epoch dense vid tables (vidOwner/vidVirt), the group
// history is a pruned ring of recycled arenas, and every queue and
// multiset is reused across rounds and epochs, so Step allocates
// nothing in churn-free steady state — including epoch boundaries.
// Per-group and per-virtual-vertex loops run through a sim.Pool (see
// shard.go) with byte-identical results at any shard count.
package splitmerge

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/graph"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/obs"
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
	if cfg.Epsilon < 0 {
		return fmt.Errorf("splitmerge: epsilon %g must be positive", cfg.Epsilon)
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

type vReq struct {
	from uint32 // requesting virtual vertex label
	j    int16
}

type vResp struct {
	v uint32 // walk endpoint (virtual vertex label)
	j int16
}

type virtState struct {
	w       uint32 // virtual vertex label (dmax bits)
	M       [][]uint32
	samples []uint32
	reqs    []vReq
	resps   []vResp
}

type super struct {
	label   hypercube.Label
	members []sim.NodeID // committed members, sorted
	pending []sim.NodeID // joiners waiting for the next commit
	virt    []*virtState
}

// histEntry is one epoch's committed topology, held in a pruned ring
// (see supernode.histEntry). nodeGroup is slot-indexed, −1 = not a
// committed member at that epoch.
type histEntry struct {
	groups    [][]sim.NodeID
	adj       [][]int32
	nodeGroup []int32
}

// Network is the Section 6 overlay.
type Network struct {
	cfg    Config
	r      *rng.RNG
	nodeR  []rng.RNG // per-node RNG slots, indexed by id−1
	supers []*super  // sorted by label

	nodeSuper []int32 // slot -> supers index, −1 when not committed
	viewEpoch []int32 // slot -> last received epoch

	// leaving is the global departure set (slot-indexed) with its id
	// list for the commit sweep. The serial code kept one map per
	// supernode and copied it through splits and merges; membership is
	// id-keyed, so one global set is equivalent and the copies vanish.
	leaving    sim.Bitset
	leavingIDs []sim.NodeID

	hist     []histEntry
	histHead int
	histLen  int
	histBase int
	histFree []histEntry

	dmax   int
	T      int
	mi     []int
	phase  int
	round  int
	epoch  int
	nextID sim.NodeID

	// blockedHist: the last three rounds' blocked sets as owned
	// bitsets — Step copies the caller's map, closing the §5 aliasing
	// hazard here too.
	blockedHist   [3]sim.Bitset
	blockedCount  int
	pendingAssign [][]sim.NodeID
	pendingValid  bool
	stats         Stats
	// metrics/lastStats: optional always-on protocol metrics
	// (SetMetrics); Step flushes the Stats delta.
	metrics   *obs.StackMetrics
	lastStats Stats

	// Sharded round execution (see shard.go). The vid tables map every
	// dmax-bit virtual label to its owning supernode and virt state for
	// the current epoch, replacing the serial per-message label search.
	shards     int
	pool       *sim.Pool
	acc        []smAcc
	leaders    []sim.NodeID
	supShard   []uint8
	vidOwner   []int32
	vidVirt    []*virtState
	vidShard   []uint8
	deliverIdx []int32
	vsPool     []*virtState
	simPR      int

	// audit: optional invariant engine, ticked once per Step.
	// faults/inj: optional deterministic fault layer — see package
	// supernode for the crash-as-blocked composition semantics.
	audit      *audit.Engine
	faults     fault.Spec
	inj        fault.Gate // composed injector + latency deadline; nil = nothing can touch delivery
	lat        sim.Latency
	wasCrashed sim.Bitset

	// direct: single-worker fast path (see supernode.Network.direct,
	// including the gating proof — it applies verbatim here). With one
	// shard and a nil delivery gate, sampling messages append straight
	// to the target virtual vertices at generation time — identical
	// results, no outbox write-read-scatter pass. Recomputed each Step;
	// a second worker or ANY non-nil gate (injector, partition window,
	// latency deadline) forces the outbox pipeline.
	direct bool

	// Connectivity-oracle scratch (collapseViews), allocated by the first
	// measurement so a network that never measures carries none.
	connUF  graph.UnionFind
	connRep []int32
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
	nw.growNodes(cfg.N0)
	for v := 0; v < cfg.N0; v++ {
		id := sim.NodeID(v + 1)
		nw.nodeR[v] = *nw.r.Split(uint64(id))
		x := nw.r.Intn(len(nw.supers))
		nw.supers[x].members = append(nw.supers[x].members, id)
	}
	nw.nextID = sim.NodeID(cfg.N0 + 1)

	nw.shards = sim.DefaultShards(cfg.Shards)
	nw.pool = sim.NewPool(nw.shards)
	sim.FinalizePool(nw, nw.pool)
	nw.acc = make([]smAcc, nw.shards)
	for w := range nw.acc {
		nw.acc[w].outReq = make([][]smWireReq, nw.shards)
		nw.acc[w].outResp = make([][]smWireResp, nw.shards)
		nw.acc[w].outAsg = make([][]smAsg, nw.shards)
	}

	nw.normalize()
	nw.indexMembers()
	nw.commitHistory()
	nw.prepareEpoch()
	return nw
}

// growNodes extends every slot-indexed structure to cover n node slots
// (new nodeSuper slots start dead).
func (nw *Network) growNodes(n int) {
	for len(nw.nodeR) < n {
		nw.nodeR = append(nw.nodeR, rng.RNG{})
		nw.nodeSuper = append(nw.nodeSuper, -1)
		nw.viewEpoch = append(nw.viewEpoch, 0)
	}
	nw.leaving = sim.GrowBitset(nw.leaving, n)
	for i := range nw.blockedHist {
		nw.blockedHist[i] = sim.GrowBitset(nw.blockedHist[i], n)
	}
	if nw.wasCrashed != nil {
		nw.wasCrashed = sim.GrowBitset(nw.wasCrashed, n)
	}
}

// Close releases the shard worker goroutines. The network must not be
// stepped afterwards. Networks that are simply dropped are cleaned up
// by a GC finalizer, so Close is an optimization, not an obligation.
func (nw *Network) Close() { nw.pool.Close() }

// superOf returns the supers index of a committed member, −1 otherwise.
func (nw *Network) superOf(id sim.NodeID) int32 {
	if id < 1 || int(id) > len(nw.nodeSuper) {
		return -1
	}
	return nw.nodeSuper[id-1]
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
func (nw *Network) Epoch() int { return nw.epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.round }

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

// EpochRounds returns rounds per epoch: the simulated primitive (two
// real rounds per primitive round) plus four reorganization rounds and
// two organized split/merge rounds — Θ(log log n).
func (nw *Network) EpochRounds() int { return 2*(2*nw.T+1) + 6 }

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
// SetMetrics attaches a protocol metric bundle (obs.StackMetrics for
// the "splitmerge" stack); nil detaches. Every Step flushes the delta
// of the internal Stats counters into it. Observation only — results
// are identical with and without metrics.
func (nw *Network) SetMetrics(sm *obs.StackMetrics) {
	nw.metrics = sm
	nw.lastStats = nw.stats
}

// flushMetrics reports the Stats movement since the last flush into
// the attached metric bundle (no-op when detached); called once per
// Step.
func (nw *Network) flushMetrics() {
	sm := nw.metrics
	if sm == nil {
		return
	}
	cur, prev := nw.stats, nw.lastStats
	lane := sm.Lane()
	sm.Epochs.Add(lane, uint64(cur.Epochs-prev.Epochs))
	sm.Stalls.Add(lane, uint64(cur.Stalls-prev.Stalls))
	sm.SampleFails.Add(lane, uint64(cur.SampleFails-prev.SampleFails))
	sm.AssignFails.Add(lane, uint64(cur.AssignFails-prev.AssignFails))
	sm.Splits.Add(lane, uint64(cur.Splits-prev.Splits))
	sm.Merges.Add(lane, uint64(cur.Merges-prev.Merges))
	sm.ForcedMerge.Add(lane, uint64(cur.ForcedMerges-prev.ForcedMerges))
	sm.Crashes.Add(lane, uint64(cur.Crashes-prev.Crashes))
	sm.Restarts.Add(lane, uint64(cur.Restarts-prev.Restarts))
	if cur.Splits > prev.Splits || cur.Merges > prev.Merges || cur.Epochs > prev.Epochs {
		for _, g := range nw.GroupSizes() {
			sm.ObserveGroupSize(int64(g))
		}
	}
	nw.lastStats = cur
}

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
func (nw *Network) SetFaults(spec fault.Spec) {
	nw.faults = spec
	nw.inj = fault.ComposeGate(spec.Injector(), nw.lat, nw.cfg.Seed)
	if spec.Crash > 0 && nw.wasCrashed == nil {
		nw.wasCrashed = sim.GrowBitset(nil, len(nw.nodeR))
	}
}

// SetLatency attaches the discrete-event latency model in virtual-round
// form (see supernode.Network.SetLatency): messages whose sampled delay
// exceeds one virtual round are dropped via fault.ComposeGate rather
// than re-ordered. A model that can never miss the deadline composes to
// the bare injector, leaving the run bit-for-bit unchanged. The zero
// value detaches.
func (nw *Network) SetLatency(lat sim.Latency) {
	if err := lat.Validate(); err != nil {
		panic("splitmerge: " + err.Error())
	}
	nw.lat = lat
	nw.inj = fault.ComposeGate(nw.faults.Injector(), lat, nw.cfg.Seed)
}

func (nw *Network) crashedNow(id sim.NodeID) bool {
	for k := 0; k < nw.faults.RestartEpochs(); k++ {
		if nw.faults.Crashes(nw.epoch-k, uint64(id)) {
			return true
		}
	}
	return false
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
	seen := make([]int32, len(nw.nodeSuper))
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
			if got := nw.nodeSuper[id-1]; got != int32(x) {
				bad(id, fmt.Sprintf("nodeSuper index says %d for node %d, membership says %d", got, id, x))
			}
		}
	}
	for v := range nw.nodeSuper {
		if nw.nodeSuper[v] >= 0 && seen[v] < 0 {
			bad(sim.NodeID(v+1), fmt.Sprintf("node %d indexed but missing from every group", v+1))
		}
	}
	return out
}

// CorruptGroupForTest deliberately desynchronizes the membership index
// for the first committed member, so tests can verify the audit engine
// reports the inconsistency within its check cadence.
func (nw *Network) CorruptGroupForTest() {
	for x, s := range nw.supers {
		if len(s.members) > 0 {
			nw.nodeSuper[s.members[0]-1] = int32((x + 1) % len(nw.supers))
			return
		}
	}
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
	nw.nodeR[id-1] = *nw.r.Split(uint64(id))
	nw.viewEpoch[id-1] = int32(nw.epoch)
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
	for v, x := range nw.nodeSuper {
		if x >= 0 {
			out = append(out, sim.NodeID(v+1))
		}
	}
	return out
}

func (nw *Network) indexMembers() {
	for i := range nw.nodeSuper {
		nw.nodeSuper[i] = -1
	}
	for x, s := range nw.supers {
		slices.Sort(s.members)
		for _, id := range s.members {
			nw.nodeSuper[id-1] = int32(x)
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
func (nw *Network) ownerOf(w uint32) int {
	if int(w) < len(nw.vidOwner) {
		return int(nw.vidOwner[w])
	}
	return -1
}

// fillVidTables rebuilds the dense virtual-vertex tables for the
// current dmax: vidOwner maps every dmax-bit label to the deepest
// supernode whose label is a prefix of it (the serial ownerOf search
// order — supers are sorted by (dim, bits), so scanning in order lets
// deeper labels overwrite shallower ones), and vidVirt maps it to the
// owner's matching virt state, nil when the owner simulates no such
// vertex (messages to it are dropped, as in the serial scan).
func (nw *Network) fillVidTables() {
	nVid := 1 << nw.dmax
	if cap(nw.vidOwner) < nVid {
		nw.vidOwner = make([]int32, nVid)
		nw.vidVirt = make([]*virtState, nVid)
		nw.vidShard = make([]uint8, nVid)
		nw.deliverIdx = make([]int32, nVid)
	}
	nw.vidOwner = nw.vidOwner[:nVid]
	nw.vidVirt = nw.vidVirt[:nVid]
	nw.vidShard = nw.vidShard[:nVid]
	nw.deliverIdx = nw.deliverIdx[:nVid]
	for w := range nw.vidOwner {
		nw.vidOwner[w] = -1
		nw.vidVirt[w] = nil
	}
	for si, s := range nw.supers {
		d := s.label.Dim()
		if d > nw.dmax {
			continue
		}
		base := uint32(s.label.Bits())
		for k := 0; k < 1<<(nw.dmax-d); k++ {
			nw.vidOwner[base|uint32(k)<<d] = int32(si)
		}
	}
	for si, s := range nw.supers {
		for _, vs := range s.virt {
			if int(vs.w) < nVid && nw.vidOwner[vs.w] == int32(si) {
				nw.vidVirt[vs.w] = vs
			}
		}
	}
	for w := 0; w < nw.shards; w++ {
		lo, hi := sim.Chunk(nVid, nw.shards, w)
		for x := lo; x < hi; x++ {
			nw.vidShard[x] = uint8(w)
		}
	}
	if cap(nw.supShard) < len(nw.supers) {
		nw.supShard = make([]uint8, len(nw.supers))
	}
	nw.supShard = nw.supShard[:len(nw.supers)]
	for w := 0; w < nw.shards; w++ {
		lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
		for x := lo; x < hi; x++ {
			nw.supShard[x] = uint8(w)
		}
	}
}

// prepareEpoch sets up the virtual-vertex sampling state, recycling
// the virt-state arenas of the previous epoch.
func (nw *Network) prepareEpoch() {
	_, nw.dmax = nw.DimRange()
	nw.T = 0
	for v := 1; v < nw.dmax; v <<= 1 {
		nw.T++
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
	if cap(nw.mi) < nw.T+1 {
		nw.mi = make([]int, nw.T+1)
	}
	nw.mi = nw.mi[:nw.T+1]
	for i := 0; i <= nw.T; i++ {
		nw.mi[i] = int(math.Ceil(math.Pow(1+nw.cfg.Epsilon, float64(nw.T-i)) * cSamp * float64(nw.dmax)))
	}
	for _, s := range nw.supers {
		nw.vsPool = append(nw.vsPool, s.virt...)
		s.virt = s.virt[:0]
	}
	for _, s := range nw.supers {
		own := 1 << (nw.dmax - s.label.Dim())
		for k := 0; k < own; k++ {
			var vs *virtState
			if p := len(nw.vsPool); p > 0 {
				vs = nw.vsPool[p-1]
				nw.vsPool[p-1] = nil
				nw.vsPool = nw.vsPool[:p-1]
			} else {
				vs = &virtState{}
			}
			vs.w = uint32(s.label.Bits()) | uint32(k)<<s.label.Dim()
			if cap(vs.M) < nw.dmax {
				vs.M = make([][]uint32, nw.dmax)
			}
			vs.M = vs.M[:nw.dmax]
			for j := range vs.M {
				vs.M[j] = vs.M[j][:0]
			}
			vs.samples = nil // a stalled final collect must see no sample
			vs.reqs = vs.reqs[:0]
			vs.resps = vs.resps[:0]
			s.virt = append(s.virt, vs)
		}
	}
	nw.fillVidTables()
	nw.phase = 0
}

func (nw *Network) blocked(id sim.NodeID, ago int) bool {
	return nw.blockedHist[ago].Test(int32(id - 1))
}

// leadersRange computes each group's leader — the lowest-id available
// member, or 0 when the group stalls — over the worker's supers range,
// and resets the worker's accumulator for the round.
func (nw *Network) leadersRange(w int) {
	acc := &nw.acc[w]
	acc.reset()
	b0, b1 := nw.blockedHist[0], nw.blockedHist[1]
	lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
	for si := lo; si < hi; si++ {
		var ld sim.NodeID
		for _, id := range nw.supers[si].members {
			v := int32(id - 1)
			if !b0.Test(v) && !b1.Test(v) {
				ld = id
				break
			}
		}
		nw.leaders[si] = ld
		if ld == 0 {
			acc.stalls++
		}
	}
}

// Step executes one round under the given blocked set. The map is
// copied into owned bitset storage; the caller may reuse or mutate it
// freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	nw.round++
	defer nw.flushMetrics()

	b2 := nw.blockedHist[2]
	nw.blockedHist[2] = nw.blockedHist[1]
	nw.blockedHist[1] = nw.blockedHist[0]
	nw.blockedHist[0] = b2
	b0 := b2
	b0.Zero()
	count := 0
	for id, bl := range blocked {
		if bl && id >= 1 && int(id) <= len(nw.nodeR) && !b0.Test(int32(id-1)) {
			b0.Set(int32(id - 1))
			count++
		}
	}
	if nw.faults.Crash > 0 {
		// Compose the crash schedule into this round's blocked set; see
		// package supernode for the semantics (crashed ≈ blocked + stale
		// view; restart recovers via the every-round S(x) broadcast).
		for v, x := range nw.nodeSuper {
			if x < 0 {
				continue
			}
			id := sim.NodeID(v + 1)
			if nw.crashedNow(id) {
				if !b0.Test(int32(v)) {
					b0.Set(int32(v))
					count++
				}
				if !nw.wasCrashed.Test(int32(v)) {
					nw.wasCrashed.Set(int32(v))
					nw.stats.Crashes++
				}
			} else if nw.wasCrashed.Test(int32(v)) {
				nw.wasCrashed.Unset(int32(v))
				nw.stats.Restarts++
			}
		}
	}
	nw.blockedCount = count

	rep := RoundReport{Round: nw.round, Epoch: nw.epoch, Blocked: count, Connected: true}

	// Single worker and untyped-nil delivery gate only (see the direct
	// field's doc and supernode's gating proof).
	nw.direct = nw.shards == 1 && nw.inj == nil

	if cap(nw.leaders) < len(nw.supers) {
		nw.leaders = make([]sim.NodeID, len(nw.supers))
	}
	nw.leaders = nw.leaders[:len(nw.supers)]
	nw.pool.Run(nw, smLeaders)

	samplingRounds := 2 * (2*nw.T + 1)
	advance := true
	switch {
	case nw.phase < samplingRounds:
		if nw.phase%2 == 0 {
			nw.simulationRound(nw.phase / 2)
		}
	case nw.phase == samplingRounds:
		nw.assignRound()
	case nw.phase == samplingRounds+5:
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
		advance = false
	}

	// Every-round S(x) broadcast: an available node with an available
	// group peer is up to date.
	nw.pool.Run(nw, smBroadcast)

	rep.Stalls = nw.mergeCounters()

	if advance {
		nw.phase++
	}
	nw.stats.Rounds++

	if nw.cfg.MeasureEvery > 0 && nw.round%nw.cfg.MeasureEvery == 0 {
		rep.Measured = true
		rep.Connected = nw.ConnectedNow()
		nw.stats.Measured++
		if !rep.Connected {
			nw.stats.Disconnected++
		}
	}
	nw.audit.SetEpoch(nw.epoch)
	nw.audit.Tick(nw.round)
	return rep
}

// broadcastRange applies the every-round S(x) broadcast over the
// worker's supers range.
func (nw *Network) broadcastRange(w int) {
	b0, b1, b2 := nw.blockedHist[0], nw.blockedHist[1], nw.blockedHist[2]
	cur := int32(nw.epoch)
	part := nw.faults.Partitioned(nw.round) // asked once: an idle run makes no per-edge call
	lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
	for si := lo; si < hi; si++ {
		s := nw.supers[si]
		for _, id := range s.members {
			v := int32(id - 1)
			if b0.Test(v) || b1.Test(v) {
				continue
			}
			if nw.viewEpoch[v] == cur {
				continue
			}
			for _, u := range s.members {
				// A partition window severs cross-component links: peers
				// on the far side cannot deliver the S(x) state.
				if u != id && !b1.Test(int32(u-1)) && !b2.Test(int32(u-1)) &&
					!(part && nw.faults.CutsEdge(nw.round, uint64(id), uint64(u))) {
					nw.viewEpoch[v] = cur
					break
				}
			}
		}
	}
}

// simulationRound advances primitive round pr of the modified
// Algorithm 2 for every virtual vertex of every supernode with an
// available leader: a compute phase over supers and a deliver phase
// over the virtual-vertex space.
func (nw *Network) simulationRound(pr int) {
	nw.simPR = pr
	if nw.direct {
		// Clear leaderless supers' virtual queues before generation
		// (the outbox path truncates inside compute, before deliver;
		// see supernode.simulationRound).
		for si, s := range nw.supers {
			if nw.leaders[si] == 0 {
				for _, vs := range s.virt {
					vs.reqs = vs.reqs[:0]
					vs.resps = vs.resps[:0]
				}
			}
		}
		nw.pool.Run(nw, smSimCompute)
		return
	}
	nw.pool.Run(nw, smSimCompute)
	nw.pool.Run(nw, smSimDeliver)
}

func (nw *Network) simComputeRange(w int) {
	acc := &nw.acc[w]
	lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
	for si := lo; si < hi; si++ {
		s := nw.supers[si]
		if nw.leaders[si] == 0 {
			if !nw.direct { // direct mode truncated before generation
				for _, vs := range s.virt {
					vs.reqs = vs.reqs[:0]
					vs.resps = vs.resps[:0]
				}
			}
			continue
		}
		r := &nw.nodeR[nw.leaders[si]-1]
		for _, vs := range s.virt {
			nw.virtRound(vs, nw.simPR, r, acc)
		}
	}
}

// extract draws a uniform element from vs.M[j-1] (1-indexed j), moving
// the last element into the hole.
func (nw *Network) extract(vs *virtState, j int, r *rng.RNG, acc *smAcc) uint32 {
	list := vs.M[j-1]
	if len(list) == 0 {
		acc.sampleFails++
		return vs.w
	}
	i := r.Intn(len(list))
	v := list[i]
	list[i] = list[len(list)-1]
	vs.M[j-1] = list[:len(list)-1]
	return v
}

// sendRequests queues iteration i's requests from vs into the worker's
// per-target-shard outboxes, in generation order.
func (nw *Network) sendRequests(vs *virtState, i int, r *rng.RNG, acc *smAcc) {
	d := nw.dmax
	step := 1 << i
	half := step / 2
	if nw.direct {
		// Direct path: extract() inlined, requests land on the target
		// virtual vertex immediately (generation order = serial
		// per-target arrival order with one worker). Unowned targets
		// drop here exactly as the deliver merge would.
		for j := 1; j <= d; j += step {
			if j+half > d {
				continue // block complete; list carries over
			}
			jw := int16(j)
			for k := 0; k < nw.mi[i]; k++ {
				list := vs.M[j-1]
				target := vs.w
				if n := uint64(len(list)); n == 0 {
					acc.sampleFails++
				} else {
					// r.Intn(n) with the Lemire fast path inlined.
					hi, lo := bits.Mul64(r.Uint64(), n)
					if lo < n {
						hi = r.Uint64nTail(hi, lo, n)
					}
					target = list[hi]
					list[hi] = list[n-1]
					vs.M[j-1] = list[:n-1]
				}
				if tv := nw.vidVirt[target]; tv != nil {
					tv.reqs = append(tv.reqs, vReq{from: vs.w, j: jw})
				}
			}
			acc.msgs += int64(nw.mi[i])
		}
		return
	}
	for j := 1; j <= d; j += step {
		if j+half > d {
			continue // block complete; list carries over
		}
		for k := 0; k < nw.mi[i]; k++ {
			target := nw.extract(vs, j, r, acc)
			ts := nw.vidShard[target]
			acc.outReq[ts] = append(acc.outReq[ts], smWireReq{target: target, from: vs.w, j: int16(j)})
		}
	}
}

// virtRound advances one virtual vertex through primitive round pr.
// Ragged variant: at iteration i, list j (j ≡ 1 mod 2^i, 1-indexed) is
// extended from list j+2^{i-1} when that index is ≤ dmax; otherwise
// the block is already complete and the list carries over untouched.
func (nw *Network) virtRound(vs *virtState, pr int, r *rng.RNG, acc *smAcc) {
	d := nw.dmax
	switch {
	case pr == 0:
		// Branchless coin fill: Coin() is the low bit of one raw draw,
		// so the entry is w with bit j−1 XOR-masked by that bit — same
		// draw sequence, no data-dependent branch, stores by index.
		m0 := nw.mi[0]
		for j := 1; j <= d; j++ {
			list := vs.M[j-1]
			if cap(list) < m0 {
				list = make([]uint32, m0)
			}
			list = list[:m0]
			bit := uint32(1) << (j - 1)
			for k := 0; k < m0; k++ {
				list[k] = vs.w ^ (bit & -uint32(r.Uint64()&1))
			}
			vs.M[j-1] = list
		}
		nw.sendRequests(vs, 1, r, acc)
	case pr%2 == 1:
		i := (pr + 1) / 2
		half := 1 << (i - 1)
		if nw.direct {
			for _, rq := range vs.reqs {
				mj := int(rq.j) + half - 1
				list := vs.M[mj]
				v := vs.w
				if n := uint64(len(list)); n == 0 {
					acc.sampleFails++
				} else {
					// r.Intn(n) with the Lemire fast path inlined.
					hi, lo := bits.Mul64(r.Uint64(), n)
					if lo < n {
						hi = r.Uint64nTail(hi, lo, n)
					}
					v = list[hi]
					list[hi] = list[n-1]
					vs.M[mj] = list[:n-1]
				}
				if tv := nw.vidVirt[rq.from]; tv != nil {
					tv.resps = append(tv.resps, vResp{v: v, j: rq.j})
				}
			}
			acc.msgs += int64(len(vs.reqs))
		} else {
			for _, rq := range vs.reqs {
				v := nw.extract(vs, int(rq.j)+half, r, acc)
				ts := nw.vidShard[rq.from]
				acc.outResp[ts] = append(acc.outResp[ts], smWireResp{target: rq.from, v: v, j: rq.j})
			}
		}
		vs.reqs = vs.reqs[:0]
	default:
		i := pr / 2
		step := 1 << i
		half := step / 2
		// Refill exactly the lists that sent requests this iteration,
		// with per-list cursors (count, reslice once, place by index).
		var cnt, cur [64]int32
		for _, rp := range vs.resps {
			cnt[rp.j]++
		}
		for j := 1; j <= d; j += step {
			if j+half <= d {
				list := vs.M[j-1]
				n := int(cnt[j])
				if cap(list) < n {
					list = make([]uint32, n)
				}
				vs.M[j-1] = list[:n]
			}
		}
		for _, rp := range vs.resps {
			vs.M[rp.j-1][cur[rp.j]] = rp.v
			cur[rp.j]++
		}
		vs.resps = vs.resps[:0]
		if i < nw.T {
			nw.sendRequests(vs, i+1, r, acc)
		} else {
			final := vs.M[0]
			rng.ShuffleSlice(r, final)
			vs.samples = final
		}
	}
}

// simDeliverRange merges this round's messages into the queues of the
// worker's virtual vertices (the vid range it owns), draining source
// workers in worker order. With a fault injector attached, each
// entry's fate is a pure function of (round, endpoints, per-vid queue
// index) — identical to the serial merge; requests and responses keep
// separate index spaces. Responses offset the from-id past the 32-bit
// virtual-label space to keep their hash stream disjoint from
// requests.
func (nw *Network) simDeliverRange(w int) {
	acc := &nw.acc[w]
	for sw := range nw.acc {
		acc.msgs += int64(len(nw.acc[sw].outReq[w]) + len(nw.acc[sw].outResp[w]))
	}
	if nw.inj == nil {
		for sw := range nw.acc {
			for _, m := range nw.acc[sw].outReq[w] {
				if vs := nw.vidVirt[m.target]; vs != nil {
					vs.reqs = append(vs.reqs, vReq{from: m.from, j: m.j})
				}
			}
			for _, m := range nw.acc[sw].outResp[w] {
				if vs := nw.vidVirt[m.target]; vs != nil {
					vs.resps = append(vs.resps, vResp{v: m.v, j: m.j})
				}
			}
		}
		return
	}
	nVid := 1 << nw.dmax
	lo, hi := sim.Chunk(nVid, nw.shards, w)
	idx := nw.deliverIdx
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range nw.acc {
		for _, m := range nw.acc[sw].outReq[w] {
			vs := nw.vidVirt[m.target]
			if vs == nil {
				continue
			}
			k := idx[m.target]
			idx[m.target] = k + 1
			rq := vReq{from: m.from, j: m.j}
			switch nw.inj.CopiesAt(nw.round, uint64(m.from)+1, uint64(m.target)+1, int(k)) {
			case 0:
				acc.faultDrops++
			case 1:
				vs.reqs = append(vs.reqs, rq)
			default:
				acc.faultDups++
				vs.reqs = append(vs.reqs, rq, rq)
			}
		}
	}
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range nw.acc {
		for _, m := range nw.acc[sw].outResp[w] {
			vs := nw.vidVirt[m.target]
			if vs == nil {
				continue
			}
			k := idx[m.target]
			idx[m.target] = k + 1
			rp := vResp{v: m.v, j: m.j}
			switch nw.inj.CopiesAt(nw.round, uint64(m.v)+1+(1<<32), uint64(m.target)+1, int(k)) {
			case 0:
				acc.faultDrops++
			case 1:
				vs.resps = append(vs.resps, rp)
			default:
				acc.faultDups++
				vs.resps = append(vs.resps, rp, rp)
			}
		}
	}
}

// assignRound reorganizes: each group's members (stayers plus pending
// joiners, sorted by id) are assigned to the owners of the sampled
// virtual vertices, i.e. to supernode y with probability 2^{−d(y)}.
func (nw *Network) assignRound() {
	if cap(nw.pendingAssign) < len(nw.supers) {
		grown := make([][]sim.NodeID, len(nw.supers))
		copy(grown, nw.pendingAssign[:cap(nw.pendingAssign)])
		nw.pendingAssign = grown
	}
	nw.pendingAssign = nw.pendingAssign[:len(nw.supers)]
	nw.pool.Run(nw, smAssign)
	nw.pool.Run(nw, smAssignDeliver)
	nw.pendingValid = true
}

func (nw *Network) assignRange(w int) {
	acc := &nw.acc[w]
	lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
	for si := lo; si < hi; si++ {
		s := nw.supers[si]
		assignees := acc.assignees[:0]
		for _, id := range s.members {
			if !nw.leaving.Test(int32(id - 1)) {
				assignees = append(assignees, id)
			}
		}
		assignees = append(assignees, s.pending...)
		acc.assignees = assignees
		if nw.leaders[si] == 0 {
			// Stalled group: cannot reorganize; everyone stays
			// (already counted as a stall).
			ts := nw.supShard[si]
			for _, id := range assignees {
				acc.outAsg[ts] = append(acc.outAsg[ts], smAsg{target: int32(si), id: id})
			}
			continue
		}
		r := &nw.nodeR[nw.leaders[si]-1]
		samples := acc.samples[:0]
		for _, vs := range s.virt {
			samples = append(samples, vs.samples...)
		}
		acc.samples = samples
		rng.ShuffleSlice(r, samples)
		for i, id := range assignees {
			var vw uint32
			switch {
			case len(samples) == 0:
				acc.assignFails++
				vw = uint32(s.label.Bits())
			case i < len(samples):
				vw = samples[i]
			default:
				acc.assignFails++
				vw = samples[i%len(samples)]
			}
			oi := nw.ownerOf(vw)
			if oi < 0 {
				acc.assignFails++
				oi = si
			}
			acc.outAsg[nw.supShard[oi]] = append(acc.outAsg[nw.supShard[oi]], smAsg{target: int32(oi), id: id})
		}
	}
}

// assignDeliverRange collects the worker's target groups' new members
// into the pending-assignment arena, in the serial append order
// (source supers ascending).
func (nw *Network) assignDeliverRange(w int) {
	lo, hi := sim.Chunk(len(nw.supers), nw.shards, w)
	for si := lo; si < hi; si++ {
		nw.pendingAssign[si] = nw.pendingAssign[si][:0]
	}
	acc := &nw.acc[w]
	for sw := range nw.acc {
		acc.msgs += int64(len(nw.acc[sw].outAsg[w]))
		for _, e := range nw.acc[sw].outAsg[w] {
			nw.pendingAssign[e.target] = append(nw.pendingAssign[e.target], e.id)
		}
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
		// Salvage the virt arenas now: the sampling phase is over, and
		// normalize may discard this super struct entirely on a
		// split/merge — recycling here keeps the pool whole.
		nw.vsPool = append(nw.vsPool, s.virt...)
		s.virt = s.virt[:0]
	}
	nw.pendingValid = false
	nw.epoch++
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
					r = &nw.nodeR[s.members[0]-1]
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

// histAt returns the recorded topology of the given epoch (which must
// lie in the ring's [histBase, histBase+histLen) window).
func (nw *Network) histAt(epoch int) *histEntry {
	return &nw.hist[(nw.histHead+epoch-nw.histBase)%len(nw.hist)]
}

// commitHistory records the committed topology for the connectivity
// measurement and the adversary snapshots, then prunes ring entries no
// committed member's view still references.
func (nw *Network) commitHistory() {
	var e histEntry
	if k := len(nw.histFree); k > 0 {
		e = nw.histFree[k-1]
		nw.histFree = nw.histFree[:k-1]
	}
	nS := len(nw.supers)
	if cap(e.groups) < nS {
		e.groups = make([][]sim.NodeID, nS)
		e.adj = make([][]int32, nS)
	}
	e.groups = e.groups[:nS]
	e.adj = e.adj[:nS]
	for x, s := range nw.supers {
		e.groups[x] = append(e.groups[x][:0], s.members...)
	}
	e.nodeGroup = append(e.nodeGroup[:0], nw.nodeSuper...)
	for i := range nw.supers {
		e.adj[i] = e.adj[i][:0]
		for j := range nw.supers {
			if i != j && hypercube.Connected(nw.supers[i].label, nw.supers[j].label) {
				e.adj[i] = append(e.adj[i], int32(j))
			}
		}
	}
	if nw.histLen == len(nw.hist) {
		grown := make([]histEntry, 2*max(len(nw.hist), 2))
		for i := 0; i < nw.histLen; i++ {
			grown[i] = nw.hist[(nw.histHead+i)%len(nw.hist)]
		}
		nw.hist = grown
		nw.histHead = 0
	}
	nw.hist[(nw.histHead+nw.histLen)%len(nw.hist)] = e
	nw.histLen++

	minE := nw.epoch
	for v, x := range nw.nodeSuper {
		if x >= 0 && int(nw.viewEpoch[v]) < minE {
			minE = int(nw.viewEpoch[v])
		}
	}
	for nw.histBase < minE && nw.histLen > 1 {
		old := nw.hist[nw.histHead]
		nw.hist[nw.histHead] = histEntry{}
		nw.histFree = append(nw.histFree, old)
		nw.histHead = (nw.histHead + 1) % len(nw.hist)
		nw.histLen--
		nw.histBase++
	}
}

// Snapshot publishes the current topology at supernode granularity.
// Groups and adjacency are copied: history arenas are recycled, and a
// dos.Buffer may retain the snapshot past this epoch's window.
func (nw *Network) Snapshot() *dos.Snapshot {
	h := nw.histAt(nw.epoch)
	groups := make([][]sim.NodeID, len(h.groups))
	for i, g := range h.groups {
		groups[i] = append([]sim.NodeID(nil), g...)
	}
	adj := make([][]int32, len(h.adj))
	for i, a := range h.adj {
		adj[i] = append([]int32(nil), a...)
	}
	return &dos.Snapshot{Round: nw.round, Groups: groups, Adj: adj}
}

// ConnectedNow reports whether the non-blocked committed members form a
// connected graph under each node's (possibly stale) knowledge. While a
// partition window is open, cross-component knowledge edges are treated
// as down — no message can traverse them.
func (nw *Network) ConnectedNow() bool {
	alive, comps := nw.collapseViews(false)
	return alive <= 1 || comps == 1
}

// collapseViews is supernode.Network.collapseViews over this stack's
// slots: the vertices are the committed members (the non-blocked ones
// unless all is set), a historic group counts only its members that
// still are committed, and adjacency is the viewed epoch's own. It
// leaves the components in nw.connUF, where every other slot stays a
// singleton.
func (nw *Network) collapseViews(all bool) (vertices, comps int) {
	b0 := nw.blockedHist[0]
	k := nw.faults.Components(nw.round) // partition components a viewer can be in
	// stride: the most supernodes any live history entry has.
	stride := 0
	for i := 0; i < nw.histLen; i++ {
		stride = max(stride, len(nw.histAt(nw.histBase+i).groups))
	}
	uf := &nw.connUF
	uf.Reset(len(nw.nodeSuper))
	keys := nw.histLen * stride * k
	nw.connRep = slices.Grow(nw.connRep[:0], keys)[:keys]
	clear(nw.connRep)
	merges := 0
	for v, s := range nw.nodeSuper {
		if s < 0 || !all && b0.Test(int32(v)) {
			continue // every edge a blocked viewer owns has a blocked endpoint
		}
		vertices++
		e := min(max(int(nw.viewEpoch[v]), nw.histBase), nw.epoch)
		h := nw.histAt(e)
		if v >= len(h.nodeGroup) || h.nodeGroup[v] < 0 {
			continue // not a member in the epoch it last heard of: knows nobody
		}
		c := 0
		if k > 1 {
			c = nw.faults.Component(uint64(v) + 1)
		}
		x := h.nodeGroup[v]
		adj := h.adj[x]
		for i := -1; i < len(adj); i++ { // y = x, then each neighbour of x
			y := x
			if i >= 0 {
				y = adj[i]
			}
			rep := &nw.connRep[((e-nw.histBase)*stride+int(y))*k+c]
			if *rep == 0 {
				*rep = -1
				for _, id := range h.groups[y] {
					w := int32(id - 1)
					if nw.nodeSuper[w] < 0 || !all && b0.Test(w) || k > 1 && nw.faults.Component(uint64(id)) != c {
						continue
					}
					if *rep < 0 {
						*rep = w + 1
					} else if uf.Union(*rep-1, w) {
						merges++
					}
				}
			}
			if *rep > 0 && uf.Union(int32(v), *rep-1) {
				merges++
			}
		}
	}
	return vertices, vertices - merges
}

// Run drives the network under the adversary for the given rounds,
// publishing snapshots and enforcing the buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	reports := make([]RoundReport, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.round+1, nw.N(), buf.View(nw.round+1))
		}
		reports = append(reports, nw.Step(blocked))
	}
	return reports
}
