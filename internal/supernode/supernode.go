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
// The rounds themselves — blocked history, leaders, the simulated
// primitive and its message queues, the S(x) catch-up, the epoch history
// and the connectivity oracle — are run by internal/committee, the
// engine this stack shares with Section 6; what is here is what Section
// 5 fixes: the K-ary cube (one vertex per group), the Phase-1 fill, the
// reassignment of members to sampled groups, the commit and the work
// estimate. All state is dense and slot-indexed (slot = id−1) and every
// per-round structure is an arena reused across rounds and epochs, so
// Step allocates nothing in steady state, and results are byte-identical
// at any worker count (see DESIGN.md).
package supernode

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/committee"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/hypercube"
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
	// (0 or 1 = every round, negative = never; ConnectedNow still
	// answers on demand).
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
	if k < 2 || k > 256 {
		return fmt.Errorf("supernode: arity %d outside [2, 256] (a coordinate is stored in 8 bits)", k)
	}
	c := cfg.C
	if c == 0 {
		c = 1
	}
	if !(c > 0 && c < math.Inf(1)) {
		return fmt.Errorf("supernode: group-size constant %g must be finite and positive", c)
	}
	if !(cfg.Epsilon >= 0 && cfg.Epsilon < math.Inf(1)) {
		return fmt.Errorf("supernode: epsilon %g must be finite and positive", cfg.Epsilon)
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

// Network is the Section 5 overlay.
type Network struct {
	cfg    Config
	cube   *hypercube.KAry
	dim    int // supernode hypercube dimension (power of two)
	nSuper int
	r      *rng.RNG
	// eng runs the rounds: blocked history, leaders, the simulated
	// primitive (one vertex per supernode), catch-up, epoch history and
	// the connectivity oracle.
	eng *committee.Engine

	groups [][]sim.NodeID // current committed groups, each sorted
	adj    [][]int32      // supernode adjacency (fixed hypercube)
	verts  [][]int32      // verts[x] = {x}: group x simulates supernode x
	mi     []int          // sample budget schedule of the primitive

	pending      [][]sim.NodeID // reorganized groups awaiting commit
	pendingValid bool
	phase        int // round index within the epoch

	stats        Stats
	idBits       int
	supBits      int
	groupBitsAvg int

	// audit: optional invariant engine, ticked once per Step.
	audit *audit.Engine
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
	nw.nSuper = nw.cube.N()
	// Sample budget: m_T must cover the largest group w.h.p.
	avg := float64(cfg.N) / float64(nw.nSuper)
	cSamp := math.Ceil(3*avg) / float64(d)
	if cSamp < 1 {
		cSamp = 1
	}
	T := bits.Len(uint(d)) - 1 // log₂ d
	nw.mi = make([]int, T+1)
	for i := range nw.mi {
		nw.mi[i] = int(math.Ceil(math.Pow(1+cfg.Epsilon, float64(T-i)) * cSamp * float64(d)))
	}

	e := committee.New(cfg.Seed, cfg.Shards, nw.runShard)
	nw.eng = e
	e.Arity, e.Fill = cfg.K, nw.fill()
	e.Rotate = cfg.RandomLeader
	e.RespFrom = uint64(nw.nSuper) + 1
	e.Grow(cfg.N)
	for v := range e.NodeR {
		e.NodeR[v] = *nw.r.Split(uint64(v) + 1)
	}
	nw.groups = make([][]sim.NodeID, nw.nSuper)
	for v := 0; v < cfg.N; v++ {
		x := nw.r.Intn(nw.nSuper)
		e.NodeGroup[v] = int32(x)
		nw.groups[x] = append(nw.groups[x], sim.NodeID(v+1))
	}
	for x := range nw.groups {
		slices.Sort(nw.groups[x])
	}
	nw.pending = make([][]sim.NodeID, nw.nSuper)
	nw.adj = make([][]int32, nw.nSuper)
	nw.verts = make([][]int32, nw.nSuper)
	ident := make([]int32, nw.nSuper)
	for x := 0; x < nw.nSuper; x++ {
		for _, y := range nw.cube.Neighbors(x) {
			nw.adj[x] = append(nw.adj[x], int32(y))
		}
		ident[x] = int32(x)
		nw.verts[x] = ident[x : x+1]
	}
	e.Commit(nw.groups).Adj = nw.adj
	e.Reset(nw.nSuper, d, nw.mi)
	copy(e.Owner, ident)
	nw.idBits = sim.IDBits(cfg.N)
	nw.supBits = sim.IDBits(nw.nSuper)
	nw.groupBitsAvg = int(avg+1) * nw.idBits
	return nw
}

// fill returns the Phase-1 fill: every entry of a list is its vertex with
// one coordinate replaced by a uniform symbol, Intn(k) of one draw, and the
// symbol is all that is stored. For k = 2 — the paper's fair coin — Intn is
// the draw's top bit (a power of two never enters Lemire's rejection loop),
// which has a bulk form.
func (nw *Network) fill() func(r *rng.RNG, x, j int, syms []uint64, m int) {
	k := nw.cfg.K
	if k == 2 {
		return func(r *rng.RNG, _, _ int, syms []uint64, m int) { r.PackBit(syms, m, 63) }
	}
	b := committee.SymBits(k)
	return func(r *rng.RNG, _, _ int, syms []uint64, m int) {
		clear(syms)
		for i := uint(0); i < uint(m); i++ {
			syms[i*b>>6] |= uint64(r.Intn(k)) << (i * b & 63)
		}
	}
}

// Close releases the shard worker goroutines. The network must not be
// stepped afterwards. Networks that are simply dropped are cleaned up
// by a GC finalizer, so Close is an optimization, not an obligation.
func (nw *Network) Close() { nw.eng.Close() }

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
func (nw *Network) Epoch() int { return nw.eng.Epoch }

// Round returns the number of completed rounds.
func (nw *Network) Round() int { return nw.eng.Round }

// samplingRounds is the length of the epoch's sampling part: two real
// rounds (simulation + synchronization) per primitive round of
// Algorithm 2.
func (nw *Network) samplingRounds() int { return 2 * (2*len(nw.mi) - 1) }

// EpochRounds returns the rounds per reorganization epoch: the sampling
// rounds plus four reorganization rounds — Θ(log log n).
func (nw *Network) EpochRounds() int { return nw.samplingRounds() + 4 }

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
	return &dos.Snapshot{Round: nw.eng.Round, Groups: cloneGroups(nw.groups), Adj: nw.adj}
}

// SetAudit attaches an invariant-audit engine (nil detaches): the
// connectivity and group-partition checkers are registered and the
// engine ticks once per Step.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.audit = e
	if e == nil {
		return
	}
	e.Register("supernode-connectivity", func() []audit.Violation {
		if !nw.ConnectedNow() {
			return []audit.Violation{{Detail: fmt.Sprintf(
				"round %d: non-blocked nodes disconnected under current knowledge", nw.eng.Round)}}
		}
		return nil
	})
	e.Register("supernode-groups", nw.checkGroups)
}

// SetFaults attaches a deterministic fault specification: message
// drop/duplication applies to the supernode-level queues, and the crash
// schedule takes nodes out for spec.RestartEpochs() epochs at a time.
// The zero spec detaches.
func (nw *Network) SetFaults(spec fault.Spec) { nw.eng.SetFaults(spec) }

// SetLatency attaches the discrete-event latency model in virtual-round
// form: supernode epochs are fixed sequences of synchronous phases, so
// instead of re-ordering deliveries the model drops any message whose
// sampled delay (the same pure (seed, round, edge) hash the sim kernel
// uses) exceeds one round — see fault.ComposeGate. A model that can
// never miss the deadline (sync, or zero spread with delay <= 1)
// composes to the bare injector and the run is bit-for-bit unchanged.
// The zero value detaches.
func (nw *Network) SetLatency(lat sim.Latency) {
	if err := nw.eng.SetLatency(lat); err != nil {
		panic("supernode: " + err.Error())
	}
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
		case seen[v]-1 != nw.eng.NodeGroup[v]:
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

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	e := nw.eng
	e.Begin(blocked, nw.groups, nw.verts)
	rep := RoundReport{Round: e.Round, Epoch: e.Epoch, Blocked: e.Blocked, Connected: true}

	// Advance the epoch protocol.
	switch sampling := nw.samplingRounds(); {
	case nw.phase < sampling:
		// The synchronization half-round only moves messages, which the
		// queues already represent; availability was enforced at the
		// simulation half-round via the leader check.
		if nw.phase%2 == 0 {
			e.Sample(nw.phase / 2)
		}
	case nw.phase == sampling:
		// Reorganization: the members of each group (sorted by id) are
		// assigned to the first k sampled supernodes.
		e.Each(phaseAssign)
		e.Each(phaseGather)
		nw.pendingValid = true
	case nw.phase == sampling+3:
		nw.commitRound()
	}

	// Every-round S(x) broadcast: an available node receives the state
	// its group peers sent in the previous round, provided some peer
	// was available to send it (the paper's recovery mechanism for
	// formerly blocked nodes).
	e.Each(phaseCatchUp)

	rep.MaxNodeBits = nw.estimateWork()
	nw.stats.MaxNodeBits = max(nw.stats.MaxNodeBits, rep.MaxNodeBits)

	c := e.End()
	rep.Stalls = c.Stalls
	nw.stats.Stalls += c.Stalls
	nw.stats.SampleFails += c.SampleFails
	nw.stats.AssignFails += c.AssignFails
	nw.stats.EmptyGroups += c.EmptyGroups
	nw.stats.FaultDrops += c.FaultDrops
	nw.stats.FaultDups += c.FaultDups
	nw.stats.Crashes += c.Crashes
	nw.stats.Restarts += c.Restarts
	nw.stats.Messages += c.Messages

	nw.phase = (nw.phase + 1) % nw.EpochRounds()
	nw.stats.Rounds++

	if nw.cfg.MeasureEvery > 0 && e.Round%nw.cfg.MeasureEvery == 0 {
		rep.Measured = true
		rep.Connected = nw.ConnectedNow()
		nw.stats.MeasuredTotal++
		if !rep.Connected {
			nw.stats.Disconnected++
		}
	}
	nw.audit.SetEpoch(e.Epoch)
	nw.audit.Tick(e.Round)
	return rep
}

// assignRange routes the members of the worker's groups to their sampled
// target groups.
func (nw *Network) assignRange(w int) {
	e := nw.eng
	c := e.Cell(w)
	lo, hi := e.Chunk(nw.nSuper, w)
	for x := lo; x < hi; x++ {
		samples := e.Samples[x]
		for i, id := range nw.groups[x] {
			target := int32(x)
			switch {
			case e.Leaders[x] < 0:
				// No available member: the group cannot reorganize; its
				// members stay put (counted as a stall already).
			case len(samples) == 0:
				c.AssignFails++
			case i < len(samples):
				target = samples[i]
			default:
				c.AssignFails++
				target = samples[i%len(samples)]
			}
			e.Route(w, target, id)
		}
	}
}

// gatherRange collects the worker's target groups' new members into the
// pending arena and sorts each group by id.
func (nw *Network) gatherRange(w int) {
	e := nw.eng
	lo, hi := e.Chunk(nw.nSuper, w)
	for x := lo; x < hi; x++ {
		nw.pending[x] = e.Gather(w, x, nw.pending[x][:0])
		slices.Sort(nw.pending[x])
		if len(nw.pending[x]) == 0 {
			e.Cell(w).EmptyGroups++
		}
	}
}

// commitRound installs the new groups by swapping the pending arena in
// and rebuilding the nodeGroup index. The rebuild is serial: a node a
// corruption listed in two groups must resolve to the same one (the
// higher) at every worker count.
func (nw *Network) commitRound() {
	if !nw.pendingValid {
		return
	}
	e := nw.eng
	nw.groups, nw.pending = nw.pending, nw.groups
	nw.pendingValid = false
	for x, g := range nw.groups {
		for _, id := range g {
			e.NodeGroup[id-1] = int32(x)
		}
	}
	e.Epoch++
	nw.stats.Epochs++
	e.Commit(nw.groups).Adj = nw.adj
	e.Reset(nw.nSuper, nw.dim, nw.mi)
}

// catchUpRange applies the S(x) broadcast over the worker's node-slot
// range, finding each node's peers through its nodeGroup pointer.
func (nw *Network) catchUpRange(w int) {
	e := nw.eng
	lo, hi := e.Chunk(nw.cfg.N, w)
	for v := lo; v < hi; v++ {
		e.CatchUp(int32(v), nw.groups[e.NodeGroup[v]])
	}
}

// estimateWork returns the implied per-node communication bits for the
// current round: the every-round broadcast of S(x) within each group
// (sized by the largest supernode state) plus the fan-out of pending
// supernode messages to whole target groups.
func (nw *Network) estimateWork() int64 {
	e := nw.eng
	msgBits := int64(nw.supBits + nw.groupBitsAvg)
	var stateBits, maxBits int64
	for x := 0; x < nw.nSuper; x++ {
		stateBits = max(stateBits, int64(e.Held(x))*msgBits)
	}
	for x, g := range nw.groups {
		if len(g) > 0 {
			reqs, resps := e.Queued(x)
			maxBits = max(maxBits, int64(len(g)-1)*stateBits+int64(reqs+resps)*msgBits)
		}
	}
	return maxBits
}

// ConnectedNow reports whether the non-blocked nodes form a connected
// graph under each node's current knowledge (stale nodes contribute
// the edges of the epoch they last received). While a partition window
// is open, cross-component knowledge edges are treated as down — no
// message can traverse them, so they cannot carry the overlay.
func (nw *Network) ConnectedNow() bool { return nw.eng.ConnectedNow() }

// Run drives the network for the given number of rounds under the
// adversary, publishing a snapshot every round and enforcing the
// buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	return committee.Run[RoundReport](nw, func() int { return nw.cfg.N }, adv, buf, rounds)
}
