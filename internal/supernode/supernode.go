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
// The rounds themselves — the epoch schedule, blocked history, leaders,
// the simulated primitive and its message queues, the reassignment of
// members to sampled groups and its commit, the S(x) catch-up, the epoch
// history, the connectivity oracle and the running totals — are run by
// internal/committee's Loop, which this stack shares with Section 6; what
// is here is what Section 5 fixes: the K-ary cube (one vertex per group,
// so a node sent to vertex x joins group x), its fixed adjacency, and the
// work estimate. All state is dense and slot-indexed (slot = id−1)
// and every per-round structure is an arena reused across rounds and
// epochs, so Step allocates nothing in steady state, and results are
// byte-identical at any worker count (see DESIGN.md).
package supernode

import (
	"fmt"
	"math"

	"overlaynet/internal/audit"
	"overlaynet/internal/committee"
	"overlaynet/internal/dos"
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
	if !(cfg.Epsilon >= 0 && cfg.Epsilon < math.Inf(1)) {
		return fmt.Errorf("supernode: epsilon %g must be finite and positive", cfg.Epsilon)
	}
	// The smallest cube has dimension 2, so k^2 supernodes must fit the
	// group-size budget.
	if limit := superLimit(cfg.N); float64(k)*float64(k) > limit {
		return fmt.Errorf("supernode: arity %d too large for n = %d (needs %d supernodes, budget %.1f)",
			k, cfg.N, k*k, limit)
	}
	return nil
}

// superLimit is the most supernodes n nodes support, n/log₂ n: §5's
// groups of c·log₂ n members with the group-size constant c = 1.
func superLimit(n int) float64 { return float64(n) / math.Log2(float64(n)) }

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

// Network is the Section 5 overlay. The embedded Loop runs its rounds,
// reorganization included, and provides Round, Epoch, EpochRounds,
// GroupSizes, Close, SetFaults, SetLatency, ConnectedNow and
// KnowledgeComponents.
type Network struct {
	*committee.Loop
	cfg    Config
	cube   *hypercube.KAry
	dim    int // supernode hypercube dimension (power of two)
	nSuper int
	r      *rng.RNG
	// eng is the Loop's engine: blocked history, leaders, the simulated
	// primitive (one vertex per supernode), epoch history and the
	// connectivity oracle.
	eng *committee.Engine

	groups [][]sim.NodeID // current committed groups, each sorted
	adj    [][]int32      // supernode adjacency (fixed hypercube)
	verts  [][]int32      // verts[x] = {x}: group x simulates supernode x
	mi     []int          // sample budget schedule of the primitive

	// pub is the copy of groups the DoS snapshots share; CorruptState and
	// RepairGroups invalidate it, as they edit groups in place.
	pub committee.Publication

	maxNodeBits  int64 // peak per-node round work over the run
	idBits       int
	supBits      int
	groupBitsAvg int
}

// New builds the network with nodes assigned to groups independently
// and uniformly at random (the paper's initial condition).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	if cfg.K == 0 {
		cfg.K = 2
	}
	nw := &Network{cfg: cfg, r: rng.New(cfg.Seed)}
	// Largest power-of-two dimension d with k^d ≤ n/log₂ n (Algorithm
	// 2's d = 2^k assumption).
	limit := superLimit(cfg.N)
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
	nw.mi = committee.Budgets(nil, d, cfg.Epsilon, math.Ceil(3*avg)/float64(d))

	e := committee.New(cfg.Seed, cfg.Shards)
	nw.eng = e
	// A member goes to the supernode sampled for it, one vertex per group:
	// Target, Assignees and Shuffle stay nil.
	nw.Loop = committee.NewLoop(e, cfg.MeasureEvery, committee.Hooks{
		Reorg:      4,
		Committees: func() ([][]sim.NodeID, [][]int32) { return nw.groups, nw.verts },
		Install: func(next [][]sim.NodeID) [][]sim.NodeID {
			old := nw.groups
			nw.groups = next
			return old
		},
		Adj: func([][]int32) [][]int32 { return nw.adj },
		Prepare: func() {
			e.Reset(nw.nSuper, nw.dim, nw.mi)
			for x := range e.Owner {
				e.Owner[x] = int32(x)
			}
		},
	})
	e.Arity = cfg.K
	e.Rotate = cfg.RandomLeader
	e.RespFrom = uint64(nw.nSuper) + 1
	e.Grow(cfg.N)
	for v := range e.NodeR {
		e.NodeR[v] = nw.r.Split(uint64(v) + 1)
	}
	nw.groups = make([][]sim.NodeID, nw.nSuper)
	for v := 0; v < cfg.N; v++ {
		x := nw.r.Intn(nw.nSuper)
		nw.groups[x] = append(nw.groups[x], sim.NodeID(v+1))
	}
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
	nw.Commit()
	nw.idBits = sim.IDBits(cfg.N)
	nw.supBits = sim.IDBits(nw.nSuper)
	nw.groupBitsAvg = int(avg+1) * nw.idBits
	return nw
}

// NSuper returns the number of supernodes.
func (nw *Network) NSuper() int { return nw.nSuper }

// Groups returns the current committed groups (do not modify).
func (nw *Network) Groups() [][]sim.NodeID { return nw.groups }

// StatsSnapshot returns the accumulated health counters.
func (nw *Network) StatsSnapshot() Stats {
	t := nw.Totals()
	return Stats{Rounds: t.Rounds, Epochs: nw.Epoch(), Stalls: t.Stalls, SampleFails: t.SampleFails,
		AssignFails: t.AssignFails, EmptyGroups: t.EmptyGroups, Disconnected: t.Disconnected,
		MeasuredTotal: t.Measured, MaxNodeBits: nw.maxNodeBits, FaultDrops: t.FaultDrops,
		FaultDups: t.FaultDups, Crashes: t.Crashes, Restarts: t.Restarts, Messages: t.Messages}
}

// Snapshot publishes the current topology at supernode granularity —
// exactly the information the paper allows the adversary to see. The
// groups are copied once per state and shared by every snapshot of it
// (committee.Publication); the adjacency is the fixed cube's.
func (nw *Network) Snapshot() *dos.Snapshot {
	return nw.pub.Snapshot(nw.Loop, func() ([][]sim.NodeID, [][]int32) {
		return committee.CloneLists(nw.groups), nw.adj
	})
}

// SetAudit attaches an invariant-audit engine (nil detaches): the
// connectivity and group-partition checkers are registered and the
// engine ticks once per Step.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.Loop.SetAudit(e)
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
	e.Register("supernode-groups", func() []audit.Violation { return nw.eng.CheckPartition(nw.groups) })
}

// Step executes one communication round under the given blocked set (see
// committee.Loop.Step) and estimates its per-node work. The map is copied
// into owned bitset storage; the caller may reuse or mutate it freely
// after Step returns.
func (nw *Network) Step(blocked map[sim.NodeID]bool) RoundReport {
	r := nw.Loop.Step(blocked)
	work := nw.estimateWork()
	nw.maxNodeBits = max(nw.maxNodeBits, work)
	return RoundReport{Round: r.Round, Epoch: r.Epoch, Blocked: r.Blocked, Connected: r.Connected,
		Measured: r.Measured, Stalls: r.Stalls, MaxNodeBits: work}
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

// Run drives the network for the given number of rounds under the
// adversary, publishing a snapshot every round and enforcing the
// buffer's lateness.
func (nw *Network) Run(adv dos.Adversary, buf *dos.Buffer, rounds int) []RoundReport {
	return committee.Run[RoundReport](nw, func() int { return nw.cfg.N }, adv, buf, rounds)
}
