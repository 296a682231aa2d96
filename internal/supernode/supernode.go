// Package supernode implements the DoS-resistant overlay of Section 5:
// n nodes organized into the groups R(x) of the 2^d supernodes of a
// binary hypercube, with group members forming cliques and neighboring
// groups complete bipartite graphs. Every Θ(log log n) rounds the
// groups are rebuilt from scratch using the rapid node sampling
// primitive (Algorithm 2), simulated at the supernode level by the
// groups, so that an Ω(log log n)-late adversary never knows the
// current group composition (Theorem 6).
//
// Implementation note (documented in DESIGN.md): the paper's
// replicated-state simulation — every available node simulates the
// supernode and the group adopts the state of the lowest-id available
// member — is executed at the semantic level: the adopted state is
// computed once per group per round, driven by the randomness of the
// lowest-id available member (exactly the state every available member
// adopts under the paper's synchronization rule), and per-node
// staleness is tracked explicitly for the connectivity measurement.
// Availability follows Section 1.1 verbatim: a node is available in
// round i iff it is non-blocked in rounds i−1 and i, and a group makes
// progress in a round only if it has an available member. The implied
// communication work (full-state broadcasts within groups, supernode
// messages fanned out to whole target groups) is accounted in bits.
//
// Scale layout (see DESIGN.md): all per-node state lives in dense
// slot-indexed arrays (slot = id−1) — per-node RNGs as a flat
// []rng.RNG, the three-round blocked history and the crash set as
// sim.Bitset — and every per-round structure (primitive multisets,
// message queues, pending groups, group history) is an arena reused
// across rounds and epochs, so Step performs zero allocations in
// steady state. The per-group and per-node loops are partitioned
// across a sim.Pool (see shard.go) with byte-identical results at any
// shard count.
package supernode

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

// Config configures the DoS-resistant hypercube network.
type Config struct {
	Seed uint64
	// N is the number of physical nodes (fixed; Section 6 lifts this).
	N int
	// K is the hypercube arity (default 2, the binary cube of Section
	// 5). K > 2 gives the k-ary extension of Section 7.2: supernodes
	// are the vertices of a d-dimensional k-ary cube (Definition 1)
	// and coordinate randomization draws a uniform symbol from
	// {0,…,k−1}, which for k = 2 is exactly the paper's coin flip.
	K int
	// C is the group-size constant: the supernode count is the largest
	// K^d ≤ N/(C·log₂ N) with the dimension d a power of two
	// (Algorithm 2's d = 2^k assumption). Default 1.
	C float64
	// Epsilon is the sampling budget slack (default 1).
	Epsilon float64
	// MeasureEvery controls how often Step measures connectivity
	// (1 = every round; 0 disables except on demand).
	MeasureEvery int
	// RandomLeader replaces the paper's lowest-id synchronization rule
	// with an arbitrary-but-consistent available member (ablation A2:
	// any deterministic choice keeps the groups consistent).
	RandomLeader bool
	// Shards is the intra-round worker count (0 consults the
	// OVERLAYNET_SHARDS environment variable, then 1). Results are
	// byte-identical at any value.
	Shards int
}

// Validate reports whether the configuration is usable, so CLIs can
// turn bad flag values into error messages instead of stack traces.
// New still panics on the same conditions.
func (cfg Config) Validate() error {
	if cfg.N < 64 {
		return fmt.Errorf("supernode: n = %d too small (need at least 64)", cfg.N)
	}
	k := cfg.K
	if k == 0 {
		k = 2
	}
	if k < 2 {
		return fmt.Errorf("supernode: arity %d < 2", k)
	}
	c := cfg.C
	if c == 0 {
		c = 1
	}
	if c < 0 {
		return fmt.Errorf("supernode: group-size constant %g must be positive", c)
	}
	if cfg.Epsilon < 0 {
		return fmt.Errorf("supernode: epsilon %g must be positive", cfg.Epsilon)
	}
	// The smallest cube has dimension 2, so k^2 supernodes must fit the
	// group-size budget n/(c·log₂ n).
	if limit := float64(cfg.N) / (c * math.Log2(float64(cfg.N))); float64(k)*float64(k) > limit {
		return fmt.Errorf("supernode: arity %d too large for n = %d (needs %d supernodes, budget %.1f)",
			k, cfg.N, k*k, limit)
	}
	return nil
}

// RoundReport summarizes one communication round.
type RoundReport struct {
	Round   int
	Epoch   int
	Blocked int
	// Connected reports whether the non-blocked nodes form a connected
	// graph under the nodes' current (possibly stale) knowledge; it is
	// true when measurement was skipped this round.
	Connected bool
	// Measured reports whether connectivity was actually computed.
	Measured bool
	// Stalls counts groups that had no available member this round.
	Stalls int
	// MaxNodeBits is the estimated peak per-node communication work.
	MaxNodeBits int64
}

// Stats aggregates protocol health counters.
type Stats struct {
	Rounds        int
	Epochs        int
	Stalls        int   // group-without-available-member events
	SampleFails   int   // multiset underflow in the simulated primitive
	AssignFails   int   // members beyond the sample budget
	EmptyGroups   int   // rebuilt groups with no members
	Disconnected  int   // rounds measured disconnected
	MeasuredTotal int   // rounds where connectivity was measured
	MaxNodeBits   int64 // peak per-node round work over the run
	FaultDrops    int   // supernode messages lost to injected faults
	FaultDups     int   // supernode messages duplicated by injected faults
	Crashes       int   // node-crash events from the fault schedule
	Restarts      int   // crashed nodes that came back
	Messages      int64 // supernode-level protocol messages delivered
}

type supReq struct {
	from int32
	j    int16
}

type supResp struct {
	v int32
	j int16
}

// histEntry is one epoch's committed group assignment, held in a ring
// buffer for the connectivity measurement. Entries and their member
// slices are recycled through a free list once every node's view has
// moved past them.
type histEntry struct {
	groups    [][]sim.NodeID
	nodeGroup []int32
}

// Network is the Section 5 overlay.
type Network struct {
	cfg    Config
	cube   *hypercube.KAry
	dim    int // supernode hypercube dimension (power of two)
	nSuper int
	r      *rng.RNG
	nodeR  []rng.RNG // per-node RNG slots, indexed by id−1

	groups    [][]sim.NodeID // current committed groups, each sorted
	nodeGroup []int32        // current supernode of each node
	adj       [][]int32      // supernode adjacency (fixed hypercube)

	// Per-node knowledge for the connectivity measurement: the epoch
	// whose group assignment the node last received. The group history
	// is a ring holding epochs [histBase, histBase+histLen); entries
	// older than min(viewEpoch) are pruned each epoch and recycled.
	viewEpoch []int32
	hist      []histEntry
	histHead  int
	histLen   int
	histBase  int
	histFree  []histEntry

	// Sampling parameters for the simulated primitive.
	T     int // log₂ dim
	mi    []int
	log2k uint // log₂ K when K is a power of two, else 0

	// Per-supernode simulated primitive state. All slices are arenas:
	// truncated, never freed, across rounds and epochs.
	// M is flattened to one slice of lists, M[x*(dim+1)+j]: the hot
	// extract path then loads a single slice header per access instead
	// of chasing a per-super pointer first.
	M       [][]int32   // M[x*(dim+1)+j] multiset of supernode indexes
	samples [][]int32   // final samples per supernode
	reqs    [][]supReq  // per-target pending requests
	resps   [][]supResp // per-target pending responses

	pending      [][]sim.NodeID // reorganized groups awaiting commit
	pendingValid bool
	round        int
	epoch        int
	phase        int // round index within the epoch

	// blockedHist holds the last three rounds' blocked sets as owned
	// bitsets (slot = id−1): [0] the round being executed, [1]/[2] the
	// two before. Step copies the caller's map into [0], so later
	// caller mutations cannot corrupt the history (the aliasing hazard
	// the PR 3 SetBlocked fix removed from the kernel).
	blockedHist  [3]sim.Bitset
	blockedCount int
	stats        Stats
	// metrics/lastStats: optional always-on protocol metrics
	// (SetMetrics). Step flushes the Stats delta since the previous
	// flush into the bundle, so instrumentation stays a single site.
	metrics      *obs.StackMetrics
	lastStats    Stats
	idBits       int
	supBits      int
	groupBitsAvg int

	// Sharded round execution (see shard.go).
	shards     int
	pool       *sim.Pool
	acc        []supAcc
	supShard   []uint8 // target supernode -> owning shard
	leaders    []int32 // per-group leader slot this round, −1 = stalled
	deliverIdx []int32 // per-target fault-injection index scratch
	simPR      int     // primitive round for phaseSimCompute
	stateBits  int64   // phaseWorkState result consumed by phaseWorkMax

	// audit: optional invariant engine, ticked once per Step.
	// faults/inj: optional deterministic fault layer — inj drops or
	// duplicates supernode messages at the central-queue merge, and the
	// crash schedule composes crashed nodes into every round's blocked
	// set (a crashed node is unresponsive, loses epoch updates, and on
	// restart recovers state through the paper's every-round S(x)
	// broadcast). wasCrashed tracks restart counting only.
	audit      *audit.Engine
	faults     fault.Spec
	inj        fault.Gate // composed injector + latency deadline; nil = nothing can touch delivery
	lat        sim.Latency
	wasCrashed sim.Bitset

	// direct: single-worker fast path. With one shard and a nil
	// delivery gate, requests and responses append straight to the
	// target queues at generation time — the generation order of the
	// lone worker IS the serial per-target arrival order, so results
	// are byte-identical to the outbox path while skipping a full
	// write-read-scatter pass over every message. Recomputed each Step;
	// a second worker or ANY non-nil gate falls back to the outboxes.
	//
	// Gating proof: the fast path changes only the mechanics of
	// delivery, never its outcome, and that equivalence holds exactly
	// when every generated message is delivered, once, in generation
	// order. Everything that can violate that premise flows through
	// nw.inj: message drop/dup and partition windows via
	// fault.Spec.Injector (Spec.Injector returns non-nil iff
	// Drop, Dup, or PartWin is set), and the latency deadline via
	// fault.ComposeGate — and fault.ComposeGate returns an untyped nil
	// only when none of those are active (never a non-nil interface
	// around a nil *Injector, which would silently keep direct mode on
	// with faults attached). Crash faults and state corruption act on
	// the blocked set and node state before generation, so they change
	// which messages are generated, not how generated messages travel,
	// and are safe under direct delivery; TestByteIdenticalAcrossShards
	// pins direct-vs-outbox byte-identity for each gate axis.
	direct bool

	// Connectivity-oracle scratch (collapseViews), allocated by the first
	// measurement so a network that never measures carries none.
	connUF  graph.UnionFind
	connRep []int32
}

// New builds the network with nodes assigned to groups independently
// and uniformly at random (the paper's initial condition).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if cfg.MeasureEvery == 0 {
		cfg.MeasureEvery = 1
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	nw := &Network{cfg: cfg, r: rng.New(cfg.Seed)}
	// Largest power-of-two dimension d with k^d ≤ n/(C·log₂ n).
	limit := float64(cfg.N) / (cfg.C * math.Log2(float64(cfg.N)))
	d := 2
	for next := d * 2; math.Pow(float64(cfg.K), float64(next)) <= limit; next *= 2 {
		d = next
	}
	if math.Pow(float64(cfg.K), float64(d)) > limit {
		panic(fmt.Sprintf("supernode: arity %d too large for n = %d", cfg.K, cfg.N))
	}
	nw.dim = d
	nw.cube = hypercube.NewKAry(cfg.K, d)
	if cfg.K&(cfg.K-1) == 0 {
		for v := cfg.K; v > 1; v >>= 1 {
			nw.log2k++
		}
	}
	nw.nSuper = nw.cube.N()
	nw.T = 0
	for v := 1; v < d; v <<= 1 {
		nw.T++
	}
	// Sample budget: m_T must cover the largest group w.h.p.
	avg := float64(cfg.N) / float64(nw.nSuper)
	cSamp := math.Ceil(3*avg) / float64(d)
	if cSamp < 1 {
		cSamp = 1
	}
	nw.mi = make([]int, nw.T+1)
	for i := 0; i <= nw.T; i++ {
		nw.mi[i] = int(math.Ceil(math.Pow(1+cfg.Epsilon, float64(nw.T-i)) * cSamp * float64(d)))
	}

	nw.nodeR = make([]rng.RNG, cfg.N)
	for v := range nw.nodeR {
		nw.nodeR[v] = *nw.r.Split(uint64(v) + 1)
	}
	nw.nodeGroup = make([]int32, cfg.N)
	nw.groups = make([][]sim.NodeID, nw.nSuper)
	for v := 0; v < cfg.N; v++ {
		x := nw.r.Intn(nw.nSuper)
		nw.nodeGroup[v] = int32(x)
		nw.groups[x] = append(nw.groups[x], sim.NodeID(v+1))
	}
	for x := range nw.groups {
		slices.Sort(nw.groups[x])
	}
	nw.pending = make([][]sim.NodeID, nw.nSuper)
	nw.adj = make([][]int32, nw.nSuper)
	for x := 0; x < nw.nSuper; x++ {
		for _, y := range nw.cube.Neighbors(x) {
			nw.adj[x] = append(nw.adj[x], int32(y))
		}
	}
	nw.viewEpoch = make([]int32, cfg.N)
	nw.hist = make([]histEntry, 4)
	nw.pushHistory()
	for i := range nw.blockedHist {
		nw.blockedHist[i] = sim.GrowBitset(nil, cfg.N)
	}
	nw.idBits = sim.IDBits(cfg.N)
	nw.supBits = sim.IDBits(nw.nSuper)
	nw.groupBitsAvg = int(avg+1) * nw.idBits

	nw.shards = sim.DefaultShards(cfg.Shards)
	nw.pool = sim.NewPool(nw.shards)
	sim.FinalizePool(nw, nw.pool)
	nw.acc = make([]supAcc, nw.shards)
	for w := range nw.acc {
		nw.acc[w].outReq = make([][]wireReq, nw.shards)
		nw.acc[w].outResp = make([][]wireResp, nw.shards)
		nw.acc[w].outAsg = make([][]asgEntry, nw.shards)
	}
	nw.supShard = make([]uint8, nw.nSuper)
	for w := 0; w < nw.shards; w++ {
		lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
		for x := lo; x < hi; x++ {
			nw.supShard[x] = uint8(w)
		}
	}
	nw.leaders = make([]int32, nw.nSuper)
	nw.deliverIdx = make([]int32, nw.nSuper)

	nw.M = make([][]int32, nw.nSuper*(nw.dim+1))
	nw.samples = make([][]int32, nw.nSuper)
	nw.reqs = make([][]supReq, nw.nSuper)
	nw.resps = make([][]supResp, nw.nSuper)
	return nw
}

// Close releases the shard worker goroutines. The network must not be
// stepped afterwards. Networks that are simply dropped are cleaned up
// by a GC finalizer, so Close is an optimization, not an obligation.
func (nw *Network) Close() { nw.pool.Close() }

func cloneGroups(gs [][]sim.NodeID) [][]sim.NodeID {
	out := make([][]sim.NodeID, len(gs))
	for i, g := range gs {
		out[i] = append([]sim.NodeID(nil), g...)
	}
	return out
}

// Dim returns the supernode hypercube dimension.
func (nw *Network) Dim() int { return nw.dim }

// NSuper returns the number of supernodes.
func (nw *Network) NSuper() int { return nw.nSuper }

// Epoch returns the number of completed reorganizations.
func (nw *Network) Epoch() int { return nw.epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.round }

// EpochRounds returns the rounds per reorganization epoch: two real
// rounds (simulation + synchronization) per primitive round of
// Algorithm 2, plus four reorganization rounds — Θ(log log n).
func (nw *Network) EpochRounds() int { return 2*(2*nw.T+1) + 4 }

// GroupSizes returns the current group sizes.
func (nw *Network) GroupSizes() []int {
	out := make([]int, nw.nSuper)
	for x, g := range nw.groups {
		out[x] = len(g)
	}
	return out
}

// Groups returns the current committed groups (do not modify).
func (nw *Network) Groups() [][]sim.NodeID { return nw.groups }

// StatsSnapshot returns the accumulated health counters.
func (nw *Network) StatsSnapshot() Stats { return nw.stats }

// Snapshot publishes the current topology at supernode granularity —
// exactly the information the paper allows the adversary to see.
func (nw *Network) Snapshot() *dos.Snapshot {
	return &dos.Snapshot{Round: nw.round, Groups: cloneGroups(nw.groups), Adj: nw.adj}
}

// SetAudit attaches an invariant-audit engine (nil detaches): the
// connectivity and group-partition checkers are registered and the
// engine ticks once per Step.
// SetMetrics attaches a protocol metric bundle (obs.StackMetrics for
// the "supernode" stack); nil detaches. Every Step flushes the delta
// of the internal Stats counters into it. Observation only — results
// are identical with and without metrics.
func (nw *Network) SetMetrics(sm *obs.StackMetrics) {
	nw.metrics = sm
	nw.lastStats = nw.stats
}

// flushMetrics reports the Stats movement since the last flush into
// the attached metric bundle (no-op when detached). Called once per
// Step, so counter updates are amortized over whole protocol rounds.
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
	sm.EmptyGroups.Add(lane, uint64(cur.EmptyGroups-prev.EmptyGroups))
	sm.Crashes.Add(lane, uint64(cur.Crashes-prev.Crashes))
	sm.Restarts.Add(lane, uint64(cur.Restarts-prev.Restarts))
	if cur.Epochs > prev.Epochs {
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
	e.Register("supernode-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: fmt.Sprintf(
				"round %d: non-blocked nodes disconnected under current knowledge", nw.round)}}
		}
		return nil
	})
	e.Register("supernode-groups", nw.checkGroups)
}

// SetFaults attaches a deterministic fault specification: message
// drop/duplication applies to the supernode-level queues, and the crash
// schedule takes nodes out for spec.RestartEpochs() epochs at a time.
// The zero spec detaches.
func (nw *Network) SetFaults(spec fault.Spec) {
	nw.faults = spec
	nw.inj = fault.ComposeGate(spec.Injector(), nw.lat, nw.cfg.Seed)
	if spec.Crash > 0 && nw.wasCrashed == nil {
		nw.wasCrashed = sim.GrowBitset(nil, nw.cfg.N)
	}
}

// SetLatency attaches the discrete-event latency model in virtual-round
// form: supernode epochs are fixed sequences of synchronous phases, so
// instead of re-ordering deliveries the model drops any message whose
// sampled delay (the same pure (seed, round, edge) hash the sim kernel
// uses) exceeds one round — see fault.ComposeGate. A model that can
// never miss the deadline (sync, or zero spread with delay <= 1)
// composes to the bare injector and the run is bit-for-bit unchanged.
// The zero value detaches.
func (nw *Network) SetLatency(lat sim.Latency) {
	if err := lat.Validate(); err != nil {
		panic("supernode: " + err.Error())
	}
	nw.lat = lat
	nw.inj = fault.ComposeGate(nw.faults.Injector(), lat, nw.cfg.Seed)
}

// crashedNow reports whether node id is down in the current epoch: the
// pure crash schedule marks it for spec.RestartEpochs() epochs starting
// at its crash epoch, so the answer is identical no matter when or
// where it is evaluated.
func (nw *Network) crashedNow(id sim.NodeID) bool {
	for k := 0; k < nw.faults.RestartEpochs(); k++ {
		if nw.faults.Crashes(nw.epoch-k, uint64(id)) {
			return true
		}
	}
	return false
}

// checkGroups verifies the group partition: every node is in exactly
// one group, and its nodeGroup pointer names that group.
func (nw *Network) checkGroups() []audit.Violation {
	seen := make([]int32, nw.cfg.N) // group+1 where each node was found
	var bad []uint64
	var detail string
	for x, g := range nw.groups {
		for _, id := range g {
			v := int(id) - 1
			if v < 0 || v >= nw.cfg.N {
				bad = append(bad, uint64(id))
				detail = "group member id out of range"
				continue
			}
			if seen[v] != 0 {
				bad = append(bad, uint64(id))
				detail = "node appears in more than one group"
				continue
			}
			seen[v] = int32(x) + 1
		}
	}
	for v := 0; v < nw.cfg.N; v++ {
		switch {
		case seen[v] == 0:
			bad = append(bad, uint64(v+1))
			detail = "node missing from every group"
		case seen[v]-1 != nw.nodeGroup[v]:
			bad = append(bad, uint64(v+1))
			detail = "nodeGroup pointer disagrees with group membership"
		}
	}
	if len(bad) == 0 {
		return nil
	}
	if len(bad) > 16 {
		bad = bad[:16]
	}
	return []audit.Violation{{Detail: fmt.Sprintf("%s (%d nodes affected)", detail, len(bad)), Nodes: bad}}
}

// CorruptGroupForTest deliberately desynchronizes the group partition
// (one node's nodeGroup pointer stops matching its group) so tests can
// prove the audit layer reports it within one check interval. Never
// call it outside tests.
func (nw *Network) CorruptGroupForTest() {
	for x, g := range nw.groups {
		if len(g) > 0 {
			v := int(g[0]) - 1
			nw.nodeGroup[v] = int32((x + 1) % nw.nSuper)
			return
		}
	}
}

// resetPrimitive reinitializes the simulated Algorithm 2 state for a
// new epoch: every multiset, queue, and sample slice is truncated in
// place, keeping the backing arenas.
func (nw *Network) resetPrimitive() {
	for i := range nw.M {
		nw.M[i] = nw.M[i][:0]
	}
	for x := 0; x < nw.nSuper; x++ {
		nw.samples[x] = nil // a stalled final collect must see no sample
		nw.reqs[x] = nw.reqs[x][:0]
		nw.resps[x] = nw.resps[x][:0]
	}
}

// blockedSlot reports whether slot v (= id−1) was blocked in the round
// `ago` rounds before the current one (0 = the round being executed).
func (nw *Network) blockedSlot(v int32, ago int) bool {
	return nw.blockedHist[ago].Test(v)
}

// blocked is the id-keyed form of blockedSlot, kept for the recovery
// and measurement layers.
func (nw *Network) blocked(id sim.NodeID, ago int) bool {
	return nw.blockedHist[ago].Test(int32(id - 1))
}

// histAt returns the committed assignment of the given epoch. Epochs
// below min(viewEpoch) are pruned, so every reachable viewEpoch value
// resolves.
func (nw *Network) histAt(epoch int) *histEntry {
	return &nw.hist[(nw.histHead+epoch-nw.histBase)%len(nw.hist)]
}

// pushHistory records the current groups and nodeGroup as the entry
// for the current epoch, recycling a pruned entry's arenas when one is
// available.
func (nw *Network) pushHistory() {
	var e histEntry
	if k := len(nw.histFree); k > 0 {
		e = nw.histFree[k-1]
		nw.histFree = nw.histFree[:k-1]
	}
	if cap(e.groups) < nw.nSuper {
		e.groups = make([][]sim.NodeID, nw.nSuper)
	}
	e.groups = e.groups[:nw.nSuper]
	for x := range nw.groups {
		e.groups[x] = append(e.groups[x][:0], nw.groups[x]...)
	}
	e.nodeGroup = append(e.nodeGroup[:0], nw.nodeGroup...)
	if nw.histLen == len(nw.hist) {
		grown := make([]histEntry, 2*len(nw.hist))
		for i := 0; i < nw.histLen; i++ {
			grown[i] = nw.hist[(nw.histHead+i)%len(nw.hist)]
		}
		nw.hist = grown
		nw.histHead = 0
	}
	nw.hist[(nw.histHead+nw.histLen)%len(nw.hist)] = e
	nw.histLen++
}

// pruneHistory recycles every epoch entry no node's view still
// references (keeping at least the current epoch's entry).
func (nw *Network) pruneHistory() {
	minE := nw.epoch
	for _, ve := range nw.viewEpoch {
		if int(ve) < minE {
			minE = int(ve)
		}
	}
	for nw.histBase < minE && nw.histLen > 1 {
		e := nw.hist[nw.histHead]
		nw.hist[nw.histHead] = histEntry{}
		nw.histFree = append(nw.histFree, e)
		nw.histHead = (nw.histHead + 1) % len(nw.hist)
		nw.histLen--
		nw.histBase++
	}
}

// leadersRange computes the per-group leader for this round over the
// worker's supernode range: the lowest-id available member (the
// paper's synchronization rule), or — under the RandomLeader ablation
// — an available member chosen by a round-dependent rotation. −1 marks
// a stalled group. Also resets the worker's accumulator for the round.
func (nw *Network) leadersRange(w int) {
	acc := &nw.acc[w]
	acc.reset()
	b0, b1 := nw.blockedHist[0], nw.blockedHist[1]
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		ld := int32(-1)
		if !nw.cfg.RandomLeader {
			for _, id := range nw.groups[x] {
				v := int32(id - 1)
				if !b0.Test(v) && !b1.Test(v) {
					ld = v
					break
				}
			}
		} else {
			acc.avail = acc.avail[:0]
			for _, id := range nw.groups[x] {
				v := int32(id - 1)
				if !b0.Test(v) && !b1.Test(v) {
					acc.avail = append(acc.avail, v)
				}
			}
			if len(acc.avail) > 0 {
				ld = acc.avail[(nw.round*31+x)%len(acc.avail)]
			}
		}
		nw.leaders[x] = ld
		if ld < 0 {
			acc.stalls++
		}
	}
}

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	nw.round++
	defer nw.flushMetrics()

	// Rotate the owned blocked history and absorb this round's set.
	b2 := nw.blockedHist[2]
	nw.blockedHist[2] = nw.blockedHist[1]
	nw.blockedHist[1] = nw.blockedHist[0]
	nw.blockedHist[0] = b2
	b0 := b2
	b0.Zero()
	count := 0
	for id, bl := range blocked {
		if bl && id >= 1 && int(id) <= nw.cfg.N && !b0.Test(int32(id-1)) {
			b0.Set(int32(id - 1))
			count++
		}
	}
	if nw.faults.Crash > 0 {
		// Compose the crash schedule into this round's blocked set: a
		// crashed node is unresponsive exactly like a DoS-blocked one,
		// loses epoch updates while down (its viewEpoch goes stale —
		// volatile state), and on restart rejoins through the every-round
		// S(x) broadcast.
		for v := 0; v < nw.cfg.N; v++ {
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

	// Single worker and nothing gating delivery (nw.inj is untyped nil
	// iff no injector, partition window, or latency deadline is active;
	// see the field's gating proof) — only then may messages bypass the
	// outbox pipeline.
	nw.direct = nw.shards == 1 && nw.inj == nil

	// Identify per-group leaders for this round and count stalls.
	nw.pool.Run(nw, phaseLeaders)

	// Advance the epoch protocol.
	pr := nw.phase / 2 // primitive round index during sampling
	switch {
	case nw.phase < 2*(2*nw.T+1):
		if nw.phase%2 == 0 {
			nw.simulationRound(pr)
		}
		// The synchronization half-round only moves messages, which the
		// central queues already represent; availability was enforced
		// at the simulation half-round via the leader check.
	case nw.phase == 2*(2*nw.T+1):
		nw.assignRound()
	case nw.phase == 2*(2*nw.T+1)+3:
		nw.commitRound()
	}

	// Every-round S(x) broadcast: an available node receives the state
	// its group peers sent in the previous round, provided some peer
	// was available to send it (the paper's recovery mechanism for
	// formerly blocked nodes).
	nw.pool.Run(nw, phaseBroadcast)

	rep.MaxNodeBits = nw.estimateWork()
	if rep.MaxNodeBits > nw.stats.MaxNodeBits {
		nw.stats.MaxNodeBits = rep.MaxNodeBits
	}

	rep.Stalls = nw.mergeCounters()

	nw.phase++
	if nw.phase == nw.EpochRounds() {
		nw.phase = 0
	}
	nw.stats.Rounds++

	if nw.cfg.MeasureEvery > 0 && nw.round%nw.cfg.MeasureEvery == 0 {
		rep.Measured = true
		rep.Connected = nw.ConnectedNow()
		nw.stats.MeasuredTotal++
		if !rep.Connected {
			nw.stats.Disconnected++
		}
	}
	nw.audit.SetEpoch(nw.epoch)
	nw.audit.Tick(nw.round)
	return rep
}

// simulationRound executes primitive round pr of Algorithm 2 for every
// supernode with an available leader. Supernodes without one are inert:
// their pending messages are lost, exactly as if the group could not
// simulate the round. Compute and deliver are separate pool phases so
// the central-queue merge keeps the serial per-target order.
func (nw *Network) simulationRound(pr int) {
	nw.simPR = pr
	if nw.direct {
		// Clear leaderless queues before generation: the outbox path
		// truncates them inside compute, before the end-of-round
		// deliver, so stale messages drop and this round's arrivals
		// survive — here arrivals appear during compute, so the
		// truncation must come first.
		for x := 0; x < nw.nSuper; x++ {
			if nw.leaders[x] < 0 {
				nw.reqs[x] = nw.reqs[x][:0]
				nw.resps[x] = nw.resps[x][:0]
			}
		}
		nw.pool.Run(nw, phaseSimCompute)
		return
	}
	nw.pool.Run(nw, phaseSimCompute)
	nw.pool.Run(nw, phaseSimDeliver)
}

// extract draws a uniform element from M[x][j], moving the last
// element into the hole (the serial multiset semantics).
func (nw *Network) extract(x, j int, r *rng.RNG, acc *supAcc) int32 {
	mi := x*(nw.dim+1) + j
	list := nw.M[mi]
	if len(list) == 0 {
		acc.sampleFails++
		return int32(x)
	}
	i := r.Intn(len(list))
	v := list[i]
	list[i] = list[len(list)-1]
	nw.M[mi] = list[:len(list)-1]
	return v
}

// sendRequests queues iteration i's requests from supernode x into the
// worker's per-target-shard outboxes, in generation order — or, on the
// direct path, straight into the target queues.
func (nw *Network) sendRequests(x, i int, r *rng.RNG, acc *supAcc) {
	step := 1 << i
	if nw.direct {
		from := int32(x)
		for j := 1; j <= nw.dim; j += step {
			jw := int16(j)
			mx := x*(nw.dim+1) + j
			for k := 0; k < nw.mi[i]; k++ {
				list := nw.M[mx]
				target := int32(x)
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
					nw.M[mx] = list[:n-1]
				}
				nw.reqs[target] = append(nw.reqs[target], supReq{from: from, j: jw})
			}
			acc.msgs += int64(nw.mi[i])
		}
		return
	}
	for j := 1; j <= nw.dim; j += step {
		for k := 0; k < nw.mi[i]; k++ {
			target := nw.extract(x, j, r, acc)
			ts := nw.supShard[target]
			acc.outReq[ts] = append(acc.outReq[ts], wireReq{target: target, from: int32(x), j: int16(j)})
		}
	}
}

// simComputeRange runs primitive round simPR for the worker's
// supernode range, consuming each group leader's RNG in the serial
// order (x ascending within the contiguous range).
func (nw *Network) simComputeRange(w int) {
	acc := &nw.acc[w]
	pr := nw.simPR
	d := nw.dim
	log2k := nw.log2k
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		ld := nw.leaders[x]
		if ld < 0 {
			if !nw.direct { // direct mode truncated before generation
				nw.reqs[x] = nw.reqs[x][:0]
				nw.resps[x] = nw.resps[x][:0]
			}
			continue
		}
		r := &nw.nodeR[ld]
		switch {
		case pr == 0:
			// Phase 1: fill every list with m₀ one-coordinate walks
			// (a uniform symbol per coordinate; for k = 2 this is the
			// paper's fair coin), then send the first requests.
			base := x * (d + 1)
			if log2k != 0 {
				// Power-of-two arity: Intn(k) is exactly the top
				// log₂k bits of one raw draw (the Lemire rejection
				// loop never fires when k divides 2⁶⁴), and the
				// coordinate update is a shifted bit-field write —
				// same draw sequence, no multiply or division.
				m0 := nw.mi[0]
				for j := 1; j <= d; j++ {
					s := uint(j-1) * log2k
					stripped := int32(x &^ ((nw.cfg.K - 1) << s))
					list := nw.M[base+j]
					if cap(list) < m0 {
						list = make([]int32, m0)
					}
					list = list[:m0]
					for k := 0; k < m0; k++ {
						val := int32(r.Uint64() >> (64 - log2k))
						list[k] = stripped | val<<s
					}
					nw.M[base+j] = list
				}
			} else {
				for j := 1; j <= d; j++ {
					list := nw.M[base+j][:0]
					for k := 0; k < nw.mi[0]; k++ {
						val := r.Intn(nw.cfg.K)
						list = append(list, int32(nw.cube.WithCoord(x, j-1, val)))
					}
					nw.M[base+j] = list
				}
			}
			nw.sendRequests(x, 1, r, acc)
		case pr%2 == 1:
			// Serve round of iteration i = (pr+1)/2.
			i := (pr + 1) / 2
			half := 1 << (i - 1)
			if nw.direct {
				// extract() inlined by hand: the serve loop runs once
				// per message and the call was not inlinable.
				for _, rq := range nw.reqs[x] {
					mx := x*(d+1) + int(rq.j) + half
					list := nw.M[mx]
					var v int32
					if n := uint64(len(list)); n == 0 {
						acc.sampleFails++
						v = int32(x)
					} else {
						// r.Intn(n) with the Lemire fast path inlined.
						hi, lo := bits.Mul64(r.Uint64(), n)
						if lo < n {
							hi = r.Uint64nTail(hi, lo, n)
						}
						v = list[hi]
						list[hi] = list[n-1]
						nw.M[mx] = list[:n-1]
					}
					nw.resps[rq.from] = append(nw.resps[rq.from], supResp{v: v, j: rq.j})
				}
				acc.msgs += int64(len(nw.reqs[x]))
			} else {
				for _, rq := range nw.reqs[x] {
					v := nw.extract(x, int(rq.j)+half, r, acc)
					ts := nw.supShard[rq.from]
					acc.outResp[ts] = append(acc.outResp[ts], wireResp{target: rq.from, v: v, j: rq.j})
				}
			}
			nw.reqs[x] = nw.reqs[x][:0]
		default:
			// Collect round of iteration i = pr/2; send next requests.
			i := pr / 2
			base := x * (d + 1)
			// Gather with per-list cursors (d is always well under 64):
			// count, reslice each list once, then place by index. This
			// avoids a slice-header read-modify-write per response.
			var cnt, cur [64]int32
			for _, rp := range nw.resps[x] {
				cnt[rp.j]++
			}
			for j := 1; j <= d; j++ {
				list := nw.M[base+j]
				n := int(cnt[j])
				if cap(list) < n {
					list = make([]int32, n)
				}
				nw.M[base+j] = list[:n]
			}
			for _, rp := range nw.resps[x] {
				j := int(rp.j)
				nw.M[base+j][cur[j]] = rp.v
				cur[j]++
			}
			nw.resps[x] = nw.resps[x][:0]
			if i < nw.T {
				nw.sendRequests(x, i+1, r, acc)
			} else {
				// M is a multiset: extraction order is uniform. The
				// central response queues deliver in sender order, so
				// shuffle to restore the multiset semantics before the
				// reorganization consumes the first k samples.
				final := nw.M[base+1]
				rng.ShuffleSlice(r, final)
				nw.samples[x] = final
			}
		}
	}
}

// simDeliverRange merges this round's generated messages into the
// queues of the worker's target supernodes. Draining source workers in
// worker order reproduces the serial per-target queue order (sources
// are contiguous ascending ranges), and with a fault injector attached
// the per-target message index — the injection tuple's idx — matches
// the serial merge exactly. Requests and responses keep separate index
// spaces, as in the serial merge.
func (nw *Network) simDeliverRange(w int) {
	acc := &nw.acc[w]
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for sw := range nw.acc {
		acc.msgs += int64(len(nw.acc[sw].outReq[w]) + len(nw.acc[sw].outResp[w]))
	}
	if nw.inj == nil {
		for sw := range nw.acc {
			for _, m := range nw.acc[sw].outReq[w] {
				nw.reqs[m.target] = append(nw.reqs[m.target], supReq{from: m.from, j: m.j})
			}
			for _, m := range nw.acc[sw].outResp[w] {
				nw.resps[m.target] = append(nw.resps[m.target], supResp{v: m.v, j: m.j})
			}
		}
		return
	}
	// Fault injection at the central-queue merge point: each queued entry
	// stands for one inter-supernode message, identified by a tuple that
	// is a pure function of this round's protocol state, so the outcome
	// is byte-identical for any driver configuration. Responses use a
	// from-id offset by nSuper to keep their hash stream disjoint from
	// requests between the same pair.
	idx := nw.deliverIdx
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range nw.acc {
		for _, m := range nw.acc[sw].outReq[w] {
			k := idx[m.target]
			idx[m.target] = k + 1
			rq := supReq{from: m.from, j: m.j}
			switch nw.inj.CopiesAt(nw.round, uint64(m.from)+1, uint64(m.target)+1, int(k)) {
			case 0:
				acc.faultDrops++
			case 1:
				nw.reqs[m.target] = append(nw.reqs[m.target], rq)
			default:
				acc.faultDups++
				nw.reqs[m.target] = append(nw.reqs[m.target], rq, rq)
			}
		}
	}
	for x := lo; x < hi; x++ {
		idx[x] = 0
	}
	for sw := range nw.acc {
		for _, m := range nw.acc[sw].outResp[w] {
			k := idx[m.target]
			idx[m.target] = k + 1
			rp := supResp{v: m.v, j: m.j}
			switch nw.inj.CopiesAt(nw.round, uint64(m.v)+uint64(nw.nSuper)+1, uint64(m.target)+1, int(k)) {
			case 0:
				acc.faultDrops++
			case 1:
				nw.resps[m.target] = append(nw.resps[m.target], rp)
			default:
				acc.faultDups++
				nw.resps[m.target] = append(nw.resps[m.target], rp, rp)
			}
		}
	}
}

// assignRound performs the reorganization: the members of each group
// (sorted by id) are assigned to the first k sampled supernodes.
func (nw *Network) assignRound() {
	nw.pool.Run(nw, phaseAssign)
	nw.pool.Run(nw, phaseAssignDeliver)
	nw.pendingValid = true
}

// assignRange routes the worker's groups' members to their sampled
// target groups via the outboxes.
func (nw *Network) assignRange(w int) {
	acc := &nw.acc[w]
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		if nw.leaders[x] < 0 {
			// No available member: the group cannot reorganize; its
			// members stay put (counted as stalls already).
			ts := nw.supShard[x]
			for _, id := range nw.groups[x] {
				acc.outAsg[ts] = append(acc.outAsg[ts], asgEntry{target: int32(x), id: id})
			}
			continue
		}
		samples := nw.samples[x]
		for i, id := range nw.groups[x] {
			var target int32
			if len(samples) == 0 {
				acc.assignFails++
				target = int32(x)
			} else if i < len(samples) {
				target = samples[i]
			} else {
				acc.assignFails++
				target = samples[i%len(samples)]
			}
			acc.outAsg[nw.supShard[target]] = append(acc.outAsg[nw.supShard[target]], asgEntry{target: target, id: id})
		}
	}
}

// assignDeliverRange collects the worker's target groups' new members
// into the pending arena and sorts each group by id.
func (nw *Network) assignDeliverRange(w int) {
	acc := &nw.acc[w]
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		nw.pending[x] = nw.pending[x][:0]
	}
	for sw := range nw.acc {
		acc.msgs += int64(len(nw.acc[sw].outAsg[w]))
		for _, e := range nw.acc[sw].outAsg[w] {
			nw.pending[e.target] = append(nw.pending[e.target], e.id)
		}
	}
	for x := lo; x < hi; x++ {
		slices.Sort(nw.pending[x])
		if len(nw.pending[x]) == 0 {
			acc.emptyGroups++
		}
	}
}

// commitRound installs the new groups by swapping the pending arena in
// and rebuilding the nodeGroup index.
func (nw *Network) commitRound() {
	if !nw.pendingValid {
		return
	}
	nw.groups, nw.pending = nw.pending, nw.groups
	nw.pendingValid = false
	nw.pool.Run(nw, phaseCommitIndex)
	nw.epoch++
	nw.stats.Epochs++
	nw.pushHistory()
	nw.pruneHistory()
	nw.resetPrimitive()
}

// commitIndexRange rebuilds nodeGroup for the worker's groups. Member
// ids are unique across groups, so writes never collide.
func (nw *Network) commitIndexRange(w int) {
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		for _, id := range nw.groups[x] {
			nw.nodeGroup[int(id)-1] = int32(x)
		}
	}
}

// broadcastRange applies the every-round S(x) broadcast over the
// worker's node-slot range: a stale available node catches up if some
// group peer could have sent it the state last round.
func (nw *Network) broadcastRange(w int) {
	b0, b1, b2 := nw.blockedHist[0], nw.blockedHist[1], nw.blockedHist[2]
	cur := int32(nw.epoch)
	part := nw.faults.Partitioned(nw.round) // asked once: an idle run makes no per-edge call
	lo, hi := sim.Chunk(nw.cfg.N, nw.shards, w)
	for v := lo; v < hi; v++ {
		vs := int32(v)
		if b0.Test(vs) || b1.Test(vs) {
			continue
		}
		if nw.viewEpoch[v] == cur {
			continue
		}
		id := sim.NodeID(v + 1)
		x := nw.nodeGroup[v]
		for _, u := range nw.groups[x] {
			// A partition window severs cross-component links: a peer on
			// the far side cannot deliver the S(x) state even if available.
			if u != id && !b1.Test(int32(u-1)) && !b2.Test(int32(u-1)) &&
				!(part && nw.faults.CutsEdge(nw.round, uint64(id), uint64(u))) {
				nw.viewEpoch[v] = cur
				break
			}
		}
	}
}

// estimateWork returns the implied per-node communication bits for the
// current round: the every-round state broadcast within each group plus
// the supernode message fan-out. Two pool phases: the global max of
// per-supernode state bits feeds the per-group fan-out max.
func (nw *Network) estimateWork() int64 {
	nw.pool.Run(nw, phaseWorkState)
	var stateBits int64
	for w := range nw.acc {
		if nw.acc[w].stateBits > stateBits {
			stateBits = nw.acc[w].stateBits
		}
	}
	nw.stateBits = stateBits
	nw.pool.Run(nw, phaseWorkMax)
	var maxBits int64
	for w := range nw.acc {
		if nw.acc[w].maxBits > maxBits {
			maxBits = nw.acc[w].maxBits
		}
	}
	return maxBits
}

func (nw *Network) workStateRange(w int) {
	var stateBits int64
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		entries := 0
		for j := 1; j <= nw.dim; j++ {
			entries += len(nw.M[x*(nw.dim+1)+j])
		}
		b := int64(entries) * int64(nw.supBits+nw.groupBitsAvg)
		if b > stateBits {
			stateBits = b
		}
	}
	nw.acc[w].stateBits = stateBits
}

func (nw *Network) workMaxRange(w int) {
	stateBits := nw.stateBits
	var maxBits int64
	lo, hi := sim.Chunk(nw.nSuper, nw.shards, w)
	for x := lo; x < hi; x++ {
		g := int64(len(nw.groups[x]))
		if g == 0 {
			continue
		}
		// Broadcast S(x) to the group, plus fan-out of pending
		// supernode messages to whole target groups.
		msgs := int64(len(nw.reqs[x]) + len(nw.resps[x]))
		bits := (g-1)*stateBits + msgs*int64(nw.supBits+nw.groupBitsAvg)
		if bits > maxBits {
			maxBits = bits
		}
	}
	nw.acc[w].maxBits = maxBits
}

// ConnectedNow reports whether the non-blocked nodes form a connected
// graph under each node's current knowledge (stale nodes contribute
// the edges of the epoch they last received). While a partition window
// is open, cross-component knowledge edges are treated as down — no
// message can traverse them, so they cannot carry the overlay.
func (nw *Network) ConnectedNow() bool {
	alive, comps := nw.collapseViews(false)
	return alive <= 1 || comps == 1
}

// collapseViews leaves in nw.connUF the components of the knowledge
// graph over the non-blocked nodes (over every node when all is set),
// without enumerating an edge, and returns how many vertices and
// components there are. A viewer v whose view is history entry h, group
// x, is adjacent to every eligible member of h.groups[y] for y = x and
// each y adjacent to x, so each such set is one component as soon as it
// has a viewer: the first viewer of (h, y, partition component) unions
// the set and leaves a representative in connRep (slot+1; −1 for a set
// with nobody eligible), and every later viewer makes a single union with
// it. See DESIGN.md, "Connectivity oracle".
func (nw *Network) collapseViews(all bool) (vertices, comps int) {
	b0 := nw.blockedHist[0]
	k := nw.faults.Components(nw.round) // partition components a viewer can be in
	uf := &nw.connUF
	uf.Reset(nw.cfg.N)
	keys := nw.histLen * nw.nSuper * k
	nw.connRep = slices.Grow(nw.connRep[:0], keys)[:keys]
	clear(nw.connRep)
	merges := 0
	for v := int32(0); v < int32(nw.cfg.N); v++ {
		if !all && b0.Test(v) {
			continue // every edge a blocked viewer owns has a blocked endpoint
		}
		vertices++
		c := 0
		if k > 1 {
			c = nw.faults.Component(uint64(v) + 1)
		}
		e := int(nw.viewEpoch[v])
		h := nw.histAt(e)
		x := h.nodeGroup[v]
		adj := nw.adj[x]
		for i := -1; i < len(adj); i++ { // y = x, then each neighbour of x
			y := x
			if i >= 0 {
				y = adj[i]
			}
			rep := &nw.connRep[((e-nw.histBase)*nw.nSuper+int(y))*k+c]
			if *rep == 0 {
				*rep = -1
				for _, id := range h.groups[y] {
					w := int32(id - 1)
					if !all && b0.Test(w) || k > 1 && nw.faults.Component(uint64(id)) != c {
						continue
					}
					if *rep < 0 {
						*rep = w + 1
					} else if uf.Union(*rep-1, w) {
						merges++
					}
				}
			}
			if *rep > 0 && uf.Union(v, *rep-1) {
				merges++
			}
		}
	}
	return vertices, vertices - merges
}

// Run drives the network for the given number of rounds under the
// adversary, publishing a snapshot every round and enforcing the
// buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	reports := make([]RoundReport, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.round+1, nw.cfg.N, buf.View(nw.round+1))
		}
		reports = append(reports, nw.Step(blocked))
	}
	return reports
}
