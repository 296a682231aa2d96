// Package committee is the round engine under the §5 (supernode) and §6
// (splitmerge) overlay stacks. In both, Θ(log n)-member groups —
// committees — sit on the vertices of a hypercube and simulate them
// through Algorithm 2: every available member computes the vertex's next
// state, the group adopts the state of its lowest-id available member,
// and the groups are rebuilt from the samples every Θ(log log n) rounds.
// As the stacks' package comments explain, that replicated simulation is
// executed semantically: the adopted state is computed once per committee
// per round on the leader's randomness.
//
// The engine's contract is one sentence: given this round's blocked set
// and each committee's sorted members, advance every vertex whose
// committee has an available leader one primitive round on that leader's
// RNG, delivering in (source committee, vertex, generation) order at any
// worker count.
//
// It owns what the paper says §5 and §6 share — the three-round blocked
// history with the crash schedule composed in, the delivery gate composed
// from faults and latency, leader election and stall counting, Algorithm 2
// over a dense vertex space (sample.go), the S(x) catch-up rule, the epoch
// history ring and the knowledge-graph oracle over it (history.go), the
// per-worker counter cells and the worker pool. A stack keeps what
// differs: its topology and which vertices a committee simulates, the
// Phase-1 fill, who is assigned where, and what a commit does.
package committee

import (
	"slices"

	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Counters are one round's protocol events. Workers count into their own
// cell (Cell); End sums the cells.
type Counters struct {
	Stalls      int // committees without an available member
	SampleFails int // draws from an empty list
	AssignFails int // members beyond the sample budget (counted by the stack)
	EmptyGroups int // rebuilt committees without members (counted by the stack)
	FaultDrops  int // messages the gate dropped
	FaultDups   int // messages the gate duplicated
	Crashes     int // nodes the crash schedule took down this round
	Restarts    int // crashed nodes that came back
	Messages    int64
}

// cell is one worker's counters and scratch, padded so adjacent workers
// never share a cache line.
type cell struct {
	Counters
	avail   []int32 // election: a committee's available members
	scratch []int32 // response values: a gated segment being rebuilt, answers nobody receives
	_       [64]byte
}

// Engine phases dispatched through RunShard; a stack's own are >= 0.
const (
	phaseElect = -1 - iota
	phaseSim
	phaseGate
)

// Engine is the shared round machine. A stack fills the exported
// configuration fields once after New, owns the contents of NodeR,
// NodeGroup, ViewEpoch and Owner, and advances Epoch when it commits.
type Engine struct {
	// Arity is the cube's K: a vertex is a D-digit base-K number.
	Arity int
	// Fill draws vertex u's Phase-1 list j (1-based) from r: m one-hop
	// walks, packed into syms as the symbol each sets coordinate j−1 to,
	// SymBits(Arity) bits apiece from bit 0 of syms[0]; what lies past them
	// is never read. The stacks use different bits of each draw.
	Fill func(r *rng.RNG, u, j int, syms []uint64, m int)
	// RespFrom offsets a response's gate identity past every request's,
	// keeping the two hash streams of one vertex pair disjoint.
	RespFrom uint64
	// Rotate replaces the lowest-id leader rule with a round-dependent
	// rotation over the available members (ablation A2).
	Rotate bool

	// Per-node state, dense by slot (= id−1); extended by Grow.
	NodeR     []rng.RNG // the randomness a node leads its committee with
	NodeGroup []int32   // committee index, −1 = not a committed member
	ViewEpoch []int32   // the epoch whose assignment the node last received

	Round   int
	Epoch   int
	Blocked int // this round's blocked nodes, crashed ones included

	// This round's committees as handed to Begin, and their leaders'
	// slots (−1 = stalled).
	members [][]sim.NodeID
	verts   [][]int32
	Leaders []int32

	algorithm2
	history

	blocked    [3]sim.Bitset // [0] the round being executed, [1], [2] the two before
	wasCrashed sim.Bitset
	Faults     fault.Spec // read-only; set through SetFaults
	lat        sim.Latency
	gate       fault.Gate // nil = nothing can touch delivery
	seed       uint64
	part       bool // a partition window is open this round

	shards int
	pool   *sim.Pool
	// serial: some node leads two committees this round, which only a
	// corruption that lists it in both can cause. Their vertices draw from
	// one RNG, in committee order, so the round's phases run one worker at
	// a time. leads is the scratch that finds such a node.
	serial bool
	leads  sim.Bitset
	guard  *struct{ *sim.Pool } // finalizer anchor: closes the pool of an engine dropped without Close
	cells  []cell
	run    func(phase, w int)
}

// New returns an engine with the given worker count (0 consults
// OVERLAYNET_SHARDS, then 1) and no nodes. run executes worker w's share
// of one of the stack's own phases (see Each); seed keys the latency gate.
func New(seed uint64, shards int, run func(phase, w int)) *Engine {
	e := &Engine{seed: seed, shards: sim.DefaultShards(shards), run: run}
	e.pool = sim.NewPool(e.shards)
	// The engine is reachable from itself through run, and an object in a
	// cycle is never finalized; the guard has no way back.
	e.guard = &struct{ *sim.Pool }{e.pool}
	sim.FinalizePool(e.guard, e.pool)
	e.cells = make([]cell, e.shards)
	e.reqs = make([][]segment[asks], e.shards)
	e.resps = make([][]answers, e.shards)
	e.routed = make([][][]sim.NodeID, e.shards)
	return e
}

// Close releases the worker goroutines; the engine must not run a round
// afterwards.
func (e *Engine) Close() { e.pool.Close() }

// Grow extends every slot-indexed structure to n node slots; new slots
// belong to no committee.
func (e *Engine) Grow(n int) {
	for len(e.NodeR) < n {
		e.NodeR = append(e.NodeR, rng.RNG{})
		e.NodeGroup = append(e.NodeGroup, -1)
		e.ViewEpoch = append(e.ViewEpoch, 0)
	}
	for i := range e.blocked {
		e.blocked[i] = sim.GrowBitset(e.blocked[i], n)
	}
	if e.wasCrashed != nil {
		e.wasCrashed = sim.GrowBitset(e.wasCrashed, n)
	}
	if e.shards > 1 {
		e.leads = sim.GrowBitset(e.leads, n)
	}
}

// SetFaults attaches a deterministic fault specification (the zero Spec
// detaches): message drop, duplication and partition windows act on the
// vertex-level queues through the gate, and the crash schedule takes nodes
// out for spec.RestartEpochs() epochs at a time by composing them into
// every round's blocked set — a crashed node is unresponsive, its view goes
// stale, and on restart it recovers through the S(x) broadcast.
func (e *Engine) SetFaults(spec fault.Spec) {
	e.Faults = spec
	e.gate = fault.ComposeGate(spec.Injector(), e.lat, e.seed)
	if spec.Crash > 0 && e.wasCrashed == nil {
		e.wasCrashed = sim.GrowBitset(nil, len(e.NodeR))
	}
}

// SetLatency attaches the discrete-event latency model in virtual-round
// form: an epoch is a fixed sequence of synchronous phases, so instead of
// re-ordering deliveries the gate drops any message whose sampled delay
// (the sim kernel's pure (seed, round, edge) hash) exceeds one round. A
// model that can never miss the deadline composes to the bare injector
// and the run is bit-for-bit unchanged. The zero value detaches.
func (e *Engine) SetLatency(lat sim.Latency) error {
	if err := lat.Validate(); err != nil {
		return err
	}
	e.lat = lat
	e.gate = fault.ComposeGate(e.Faults.Injector(), lat, e.seed)
	return nil
}

// crashedNow reports whether node id is down in the current epoch. The
// schedule is a pure function, so the answer is the same wherever and
// whenever it is asked.
func (e *Engine) crashedNow(id sim.NodeID) bool {
	for k := 0; k < e.Faults.RestartEpochs(); k++ {
		if e.Faults.Crashes(e.Epoch-k, uint64(id)) {
			return true
		}
	}
	return false
}

// BlockedAgo reports whether slot v was blocked `ago` rounds before the
// current one (0 = the round being executed, at most 2).
func (e *Engine) BlockedAgo(v int32, ago int) bool { return e.blocked[ago].Test(v) }

// Begin opens a round: it copies the caller's blocked set into the owned
// history (the map may be reused or mutated afterwards), composes the
// crash schedule in, and elects every committee's leader. members[c] are
// committee c's sorted members and verts[c] the vertices it simulates;
// both must stay unchanged until the next Begin.
func (e *Engine) Begin(blocked map[sim.NodeID]bool, members [][]sim.NodeID, verts [][]int32) {
	e.Round++
	b0 := e.blocked[2]
	e.blocked[2], e.blocked[1], e.blocked[0] = e.blocked[1], e.blocked[0], b0
	b0.Zero()
	count := 0
	for id, bl := range blocked {
		if bl && id >= 1 && int(id) <= len(e.NodeR) && !b0.Test(int32(id-1)) {
			b0.Set(int32(id - 1))
			count++
		}
	}
	for w := range e.cells {
		e.cells[w].Counters = Counters{}
	}
	if e.Faults.Crash > 0 {
		c := &e.cells[0].Counters
		for v, g := range e.NodeGroup {
			if g < 0 {
				continue
			}
			v := int32(v)
			if e.crashedNow(sim.NodeID(v + 1)) {
				if !b0.Test(v) {
					b0.Set(v)
					count++
				}
				if !e.wasCrashed.Test(v) {
					e.wasCrashed.Set(v)
					c.Crashes++
				}
			} else if e.wasCrashed.Test(v) {
				e.wasCrashed.Unset(v)
				c.Restarts++
			}
		}
	}
	e.Blocked = count
	e.part = e.Faults.Partitioned(e.Round) // asked once: an idle run makes no per-edge call
	e.members, e.verts = members, verts
	e.Leaders = slices.Grow(e.Leaders[:0], len(members))[:len(members)]
	for w := range e.routed {
		e.routed[w] = slices.Grow(e.routed[w][:0], len(members))[:len(members)]
	}
	e.pool.Run(e, phaseElect)
	e.serial = false
	if e.shards > 1 {
		for _, ld := range e.Leaders {
			if ld >= 0 {
				e.serial = e.serial || e.leads.Test(ld)
				e.leads.Set(ld)
			}
		}
		for _, ld := range e.Leaders {
			if ld >= 0 {
				e.leads.Unset(ld)
			}
		}
	}
}

// electRange elects the leaders of worker w's committees: the lowest-id
// member non-blocked in this round and the last (Section 1.1's
// availability), or under Rotate an available member picked by a
// round-dependent rotation.
func (e *Engine) electRange(w int) {
	c := &e.cells[w]
	b0, b1 := e.blocked[0], e.blocked[1]
	lo, hi := e.Chunk(len(e.members), w)
	for x := lo; x < hi; x++ {
		ld := int32(-1)
		c.avail = c.avail[:0]
		for _, id := range e.members[x] {
			if v := int32(id - 1); !b0.Test(v) && !b1.Test(v) {
				if !e.Rotate {
					ld = v
					break
				}
				c.avail = append(c.avail, v)
			}
		}
		if len(c.avail) > 0 {
			ld = c.avail[(e.Round*31+x)%len(c.avail)]
		}
		e.Leaders[x] = ld
		if ld < 0 {
			c.Stalls++
		}
	}
}

// End closes the round and returns its counters, summed over the workers.
func (e *Engine) End() (sum Counters) {
	for w := range e.cells {
		c := &e.cells[w].Counters
		sum.Stalls += c.Stalls
		sum.SampleFails += c.SampleFails
		sum.AssignFails += c.AssignFails
		sum.EmptyGroups += c.EmptyGroups
		sum.FaultDrops += c.FaultDrops
		sum.FaultDups += c.FaultDups
		sum.Crashes += c.Crashes
		sum.Restarts += c.Restarts
		sum.Messages += c.Messages
	}
	return sum
}

// Cell returns worker w's counters for the stack's own phases.
func (e *Engine) Cell(w int) *Counters { return &e.cells[w].Counters }

// Chunk returns worker w's contiguous share of [0, total). Worker order
// is index order, which is what makes merging in worker order serial.
func (e *Engine) Chunk(total, w int) (lo, hi int) { return sim.Chunk(total, e.shards, w) }

// Each runs one of the stack's phases (>= 0) on every worker through the
// run function given to New and returns when all are done. A worker may
// write only what its Chunk owns, its Cell, and the RNGs of its
// committees' leaders.
func (e *Engine) Each(phase int) {
	if e.serial {
		for w := range e.cells {
			e.RunShard(phase, w)
		}
		return
	}
	e.pool.Run(e, phase)
}

// RunShard implements sim.ShardRunner.
func (e *Engine) RunShard(phase, w int) {
	switch phase {
	case phaseElect:
		e.electRange(w)
	case phaseSim:
		e.simRange(w)
	case phaseGate:
		e.gateRange(w)
	default:
		e.run(phase, w)
	}
}

// Route hands node id to committee c for the next epoch. Called from an
// Each phase by worker w, which appends to its own segment of c's list.
func (e *Engine) Route(w int, c int32, id sim.NodeID) {
	e.routed[w][c] = append(e.routed[w][c], id)
}

// Gather appends to dst the nodes routed to committee c, in source
// order, counts them as messages and empties the segments. Called from a
// later Each phase by the worker that owns c.
func (e *Engine) Gather(w, c int, dst []sim.NodeID) []sim.NodeID {
	for sw := range e.routed {
		seg := e.routed[sw][c]
		dst = append(dst, seg...)
		e.cells[w].Messages += int64(len(seg))
		e.routed[sw][c] = seg[:0]
	}
	return dst
}

// CatchUp applies the every-round S(x) broadcast to slot v, whose
// committee lists peers: an available node with a stale view adopts the
// current epoch if some peer could have sent the state last round — it was
// non-blocked in the two rounds before this one and no open partition
// window separates the two. The stacks differ in how they find v's
// committee, which matters once state is corrupted, so each keeps its walk.
func (e *Engine) CatchUp(v int32, peers []sim.NodeID) {
	cur := int32(e.Epoch)
	if e.ViewEpoch[v] == cur || e.blocked[0].Test(v) || e.blocked[1].Test(v) {
		return
	}
	id := sim.NodeID(v + 1)
	for _, u := range peers {
		if u != id && !e.blocked[1].Test(int32(u-1)) && !e.blocked[2].Test(int32(u-1)) &&
			!(e.part && e.Faults.CutsEdge(e.Round, uint64(id), uint64(u))) {
			e.ViewEpoch[v] = cur
			return
		}
	}
}

// Stepper is the part of a stack Run drives.
type Stepper[R any] interface {
	Snapshot() *dos.Snapshot
	Step(blocked map[sim.NodeID]bool) R
	Round() int
}

// Run drives nw for the given number of rounds under the adversary,
// publishing a snapshot every round and enforcing the buffer's lateness;
// n reports the current node count.
func Run[R any](nw Stepper[R], n func() int, adv dos.Adversary, buf *dos.Buffer, rounds int) []R {
	reports := make([]R, 0, rounds)
	for i := 0; i < rounds; i++ {
		buf.Publish(nw.Snapshot())
		var blocked map[sim.NodeID]bool
		if adv != nil {
			blocked = adv.SelectBlocked(nw.Round()+1, n(), buf.View(nw.Round()+1))
		}
		reports = append(reports, nw.Step(blocked))
	}
	return reports
}
