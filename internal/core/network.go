// Package core implements the paper's primary contribution (Section 4):
// an overlay network organized as an ℍ-graph that maintains
// connectivity under adversarial churn with any constant churn rate by
// continuously reconfiguring itself. Every O(log log n) rounds each
// Hamilton cycle is replaced by a fresh one chosen uniformly at random
// (Algorithm 3), so the adversary's knowledge of the topology is
// always stale and joins/leaves are absorbed wholesale.
//
// Network is the full distributed protocol, running on the sim
// runtime. The tests hold a centralized reference of one
// reconfiguration (ReconfigureRef), whose output distribution is the
// protocol's by construction, and check the protocol against it.
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/graph"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
	"overlaynet/internal/trace"
)

// Config configures the churn-resistant expander network.
type Config struct {
	Seed uint64
	// N0 is the initial network size (≥ 8).
	N0 int
	// D is the ℍ-graph degree (even, ≥ 6; the paper uses d ≥ 8).
	D int
	// Alpha is the walk-length constant of Lemma 2 (default 2.5).
	Alpha float64
	// Epsilon is the sampling budget slack (default 1).
	Epsilon float64
	// Shards is ignored: the kernel is serial. The field stays only
	// until bench/ stops setting it (ROADMAP item 1(c)/(e)).
	Shards int
	// Latency is forwarded to sim.Config.Latency: the zero value keeps
	// the synchronous round model; an enabled model runs the
	// reconfiguration protocol under the discrete-event scheduler, where
	// per-edge delays can defer messages past their synchronous round
	// and the epoch degrades (sampling underflow, missed boundaries —
	// the Failures counters) instead of assuming lockstep delivery.
	Latency sim.Latency
	// Reliable layers the deterministic ack/retransmit/timeout endpoint
	// (internal/reliable) around every protocol node: sends are enveloped
	// and acked, losses retransmitted on a pure backoff schedule, and an
	// exhausted budget surfaces as a FailDelivery failure instead of a
	// silent loss. Epochs then take EpochRounds·stretch sim rounds, where
	// the stretch is Reliable.EffectiveStretch(Latency) — 1 on a
	// spread-free model, so zero-spread reliable epochs reproduce the
	// legacy traces bit for bit.
	Reliable reliable.Config
}

// Validate reports whether the configuration is usable. CLIs call it on
// user-supplied flag values before constructing a network, so bad input
// becomes an error message rather than a stack trace; NewNetwork still
// panics on the same conditions (an unvalidated config reaching it is a
// caller bug).
func (cfg Config) Validate() error {
	if cfg.N0 < 8 {
		return fmt.Errorf("core: initial size %d too small (need at least 8)", cfg.N0)
	}
	if cfg.D < 6 || cfg.D%2 != 0 {
		return fmt.Errorf("core: degree %d must be even and at least 6", cfg.D)
	}
	if cfg.D > sampling.MaxDegree {
		return fmt.Errorf("core: degree %d exceeds %d, the most the sampler's request counters cover", cfg.D, sampling.MaxDegree)
	}
	if !(cfg.Alpha >= 0 && cfg.Alpha < math.Inf(1)) {
		return fmt.Errorf("core: alpha %g must be finite and positive", cfg.Alpha)
	}
	if !(cfg.Epsilon >= 0 && cfg.Epsilon < math.Inf(1)) {
		return fmt.Errorf("core: epsilon %g must be finite and positive", cfg.Epsilon)
	}
	if err := cfg.Latency.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := cfg.Reliable.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// JoinSpec describes a node joining in the next epoch: the new node ID
// is assigned by the network; Sponsor must be a current member the new
// node is introduced to.
type JoinSpec struct {
	Sponsor int
}

// EpochReport summarizes one reconfiguration epoch.
type EpochReport struct {
	Epoch  int
	Rounds int
	// NOld and NNew are the member counts before and after the epoch.
	NOld, NNew int
	// Connected reports whether the new topology (restricted to the new
	// member set) is connected.
	Connected bool
	// Valid reports whether every new cycle is a single Hamilton cycle
	// over the new member set (Theorem 4's structural guarantee).
	Valid bool
	// Failures counts protocol failure events (sampling underflow,
	// unresolved pointer doubling, missing boundaries or assignments);
	// zero w.h.p. per Lemmas 7, 11, 12.
	Failures int
	// FailureKinds breaks Failures down by kind (FailSampling…).
	FailureKinds [numFailKinds]int
	// MaxChosen is the maximum number of ids placed at any node in any
	// cycle (Lemma 11: polylogarithmic w.h.p.).
	MaxChosen int
	// MaxEmptySegment is the longest run of inactive nodes along any
	// old cycle (Lemma 12: polylogarithmic w.h.p.).
	MaxEmptySegment int
	// MaxNodeBits is the peak per-node per-round communication work
	// during the epoch (Theorem 4: polylogarithmic w.h.p.).
	MaxNodeBits int64
}

// epochPlan carries the parameters all nodes use for one epoch. The
// driver writes it between epochs; node handlers read it during the
// epoch (the happens-before edge is the round barrier).
type epochPlan struct {
	epoch    int
	params   sampling.HGraphParams
	sampling *sampling.Run // the epoch's Algorithm 1 run, dropped when the epoch ends
	arena    *epochArena   // the epoch's Algorithm 3 state, dropped when the epoch ends
	T        int           // sampling iterations
	doubling int           // pointer-doubling steps K
	rounds   int           // total rounds in the epoch
	idBits   int           // bits of one node id
}

// Failure kinds recorded per epoch (all zero w.h.p. under the
// prescribed parameters).
const (
	// FailSampling counts extraction-from-empty events in the rapid
	// sampling sub-phase (Lemma 7).
	FailSampling = iota
	// FailBudget counts placements that exceeded the sample budget.
	FailBudget
	// FailDoubling counts unresolved pointer-doubling searches
	// (an empty segment longer than 2^K; Lemma 12).
	FailDoubling
	// FailBound counts missing or duplicate boundary exchanges.
	FailBound
	// FailAssign counts nodes that did not receive an assignment for
	// every cycle.
	FailAssign
	// FailDelivery counts messages whose reliable-delivery retransmit
	// budget ran out (nonzero only with Config.Reliable enabled): the
	// sender was told its message is lost instead of never learning.
	FailDelivery
	numFailKinds
)

// slot is what the driver and one node exchange in one epoch, kept in
// the epoch's arena: the driver writes the node's orders before the
// epoch, the node its results during it.
type slot struct {
	fails    [numFailKinds]int
	assigned int   // cycles for which an assignment arrived
	sponsor  int32 // a joiner's sponsor
	row      int32 // the node's row of the new topology block; a leaver has none
	leaving  bool
}

// Message payload types of the reconfiguration protocol. A hello and a
// doubling query travel as values; the others as pointers into the
// epoch's arena, so a send allocates nothing.
type helloMsg struct{ ID int32 }
type placeMsg struct {
	Cycle int8
	ID    int32
}
type dblQuery struct{ Cycle int8 }
type dblResp struct {
	Cycle  int8
	Active bool
	Fwd    int32
	// FwdActive reports that the responder's jump pointer already
	// points at its nearest active node, letting the querier adopt the
	// resolution directly (a node's nearest active successor equals its
	// inactive jump target's nearest active successor).
	FwdActive bool
}
type boundMsg struct {
	Cycle int8
	Last  int32
}
type boundReply struct {
	Cycle int8
	First int32
}
type assignMsg struct {
	Cycle      int8
	Pred, Succ int32
}

// Network is the distributed churn-resistant expander network. All
// methods must be called from a single driver goroutine.
type Network struct {
	cfg     Config
	net     *sim.Network
	plan    *epochPlan
	members []int // sorted current member ids
	// topo is the adopted topology: d entries per member, in member
	// order, its successors in the d/2 cycles and then its predecessors
	// (see rows). The nodes read their own rows from it at the start of
	// an epoch, so a write here reaches the live protocol state.
	topo   []int32
	nextID int
	epoch  int
	// trace/traceScope: optional telemetry (SetTrace). Every RunEpoch
	// emits an epoch span and the underlying simulator reports its
	// lifecycle events and drop accounting under the same scope.
	trace      *trace.Recorder
	traceScope string
	simTracer  sim.Tracer // the tracer SetTrace attached, pre-WorkAuditor

	// audit/budget/faulty: optional invariant auditing (SetAudit). The
	// budget tally is shared by every node's sampling
	// sub-phase; lastWindow is the most recent epoch's reconciliation
	// window for the sampling-budget checker. faulty records that a
	// message injector is attached, which relaxes the exact
	// issued==served conservation check (lost batches legitimately break
	// it — that is the experiment's signal, reported as a violation).
	audit      *audit.Engine
	budget     *sampling.BudgetStats
	lastWindow budgetWindow
	faulty     bool

	// tap, when set, sees each payload a §4 node sends (sent) and each
	// one delivered to it. Tests set it to check that a payload reads the
	// same at delivery as at send.
	tap func(payload any, sent bool)

	// stretch is the resolved phase stretch (sim rounds per protocol
	// round): 1 without Config.Reliable, else
	// Reliable.EffectiveStretch(Latency).
	stretch int
}

// budgetWindow is one epoch's sampling-budget reconciliation window:
// the sim-level message count of the sampling rounds and the budget
// tally over the same epoch.
type budgetWindow struct {
	epoch    int
	messages int64 // RoundWork.Messages summed over the sampling rounds
	budget   sampling.BudgetStats
	valid    bool
}

// SetTrace attaches a telemetry recorder: each RunEpoch emits an epoch
// span (epoch number, rounds, member counts before/after, wall time)
// tagged with scope, and the underlying simulator's round, spawn, drop
// and duplication events feed the recorder's counters. Pass nil to
// detach.
// Tracing is observation only: it does not touch any randomness, so
// results are identical with and without it.
func (nw *Network) SetTrace(rec *trace.Recorder, scope string) {
	nw.trace = rec
	nw.traceScope = scope
	if rec == nil {
		nw.simTracer = nil
	} else {
		nw.simTracer = rec.Tracer(scope)
	}
	nw.attachTracer()
}

// attachTracer wires the effective tracer chain into the simulator:
// when an audit engine is attached, a WorkAuditor wraps the telemetry
// tracer (which may be nil) so the kernel's message ledger is verified
// round by round; otherwise the telemetry tracer (or nil) attaches
// directly.
func (nw *Network) attachTracer() {
	if nw.audit != nil {
		nw.net.SetTracer(audit.NewWorkAuditor(nw.audit, nw.simTracer))
		return
	}
	nw.net.SetTracer(nw.simTracer)
}

// SetAudit attaches an invariant-audit engine (nil detaches): the
// Hamilton-topology, connectivity, and sampling-budget checkers are
// registered on it, the sampling sub-phase starts tallying its request
// budget, and a WorkAuditor is spliced in front of the telemetry
// tracer. Call it after SetTrace if both are used. The engine ticks
// once per reconfiguration epoch — the only points where the topology
// state is consistent.
func (nw *Network) SetAudit(e *audit.Engine) {
	nw.audit = e
	if e == nil {
		nw.budget = nil
		nw.attachTracer()
		return
	}
	nw.budget = &sampling.BudgetStats{}
	e.Register("hamilton-topology", func() []audit.Violation {
		if err := nw.ValidateTopology(); err != nil {
			return []audit.Violation{{Detail: err.Error()}}
		}
		return nil
	})
	e.Register("connectivity", func() []audit.Violation {
		if !nw.connected(nw.ValidateTopology() == nil) {
			return []audit.Violation{{Detail: fmt.Sprintf("topology over %d members is disconnected", len(nw.members))}}
		}
		return nil
	})
	e.Register("sampling-budget", nw.checkBudget)
	nw.attachTracer()
}

// SetInjector attaches a deterministic message-fault injector to the
// underlying simulator (nil detaches). Injection relaxes the exact
// sampling-budget conservation check: lost request/response batches are
// expected to open an issued/served gap, and the audit layer reports
// how large it gets.
func (nw *Network) SetInjector(inj sim.Injector) {
	nw.net.SetInjector(inj)
	nw.faulty = inj != nil
}

// checkBudget reconciles the most recent epoch's sampling window: the
// sim kernel's message count over the sampling rounds must equal the
// request+response batches the protocol sent (nothing else communicates
// in those rounds), and with no injector every issued request must have
// been served, exactly (a dropped request opens an issued/served gap;
// a duplicated one can push served past issued).
func (nw *Network) checkBudget() []audit.Violation {
	w := nw.lastWindow
	if !w.valid {
		return nil
	}
	var out []audit.Violation
	b := &w.budget
	if batches := b.ReqBatches + b.RespBatches; w.messages != batches {
		out = append(out, audit.Violation{Detail: fmt.Sprintf(
			"epoch %d: sampling rounds carried %d messages but the protocol sent %d batches (%d req + %d resp)",
			w.epoch, w.messages, batches, b.ReqBatches, b.RespBatches)})
	}
	if !nw.faulty && b.Served != b.Issued {
		out = append(out, audit.Violation{Detail: fmt.Sprintf(
			"epoch %d: issued %d but served %d (refused %d) with no faults injected",
			w.epoch, b.Issued, b.Served, b.Refused)})
	}
	return out
}

// EpochRounds returns the number of communication rounds one epoch
// takes for the given sampling parameters and doubling step count:
// 2T (sampling) + 2K (pointer doubling) + 6 (hello, placement,
// boundary exchange, assignment, commit) — O(log log n) in total.
func EpochRounds(T, K int) int { return 2*T + 2*K + 6 }

// doublingSteps returns K such that 2^K exceeds the longest empty
// segment w.h.p. (Lemma 12: segments are O(log n), so K = O(log log n)).
func doublingSteps(n int) int {
	bound := 6*math.Log(float64(n)) + 32
	return int(math.Ceil(math.Log2(bound)))
}

// NewNetwork builds the initial ℍ-graph over cfg.N0 nodes and spawns
// their protocol handlers. The initial topology is sampled uniformly
// from ℍₙ, matching the paper's initial condition.
func NewNetwork(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 2.5
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1
	}
	nw := &Network{
		cfg:     cfg,
		net:     sim.NewNetwork(sim.Config{Seed: cfg.Seed, Latency: cfg.Latency}),
		members: make([]int, cfg.N0),
		topo:    make([]int32, cfg.N0*cfg.D),
		nextID:  cfg.N0,
		stretch: 1,
	}
	if cfg.Reliable.Enabled() {
		nw.stretch = cfg.Reliable.EffectiveStretch(cfg.Latency)
	}
	h := hgraph.Random(rng.New(cfg.Seed^0xabcdef0123456789), cfg.N0, cfg.D)
	for v := range nw.members {
		succ, pred := nw.rows(v)
		for c := range succ {
			succ[c] = int32(h.Cycle(c).Succ(v))
			pred[c] = int32(h.Cycle(c).Pred(v))
		}
		nw.members[v] = v
		nw.net.SpawnHandler(nw.idOf(v), nw.wrap(&coreNode{nw: nw, id: v}))
	}
	return nw
}

// rows returns row i of a topology block of d entries per node: its
// successors in the d/2 cycles, then its predecessors.
func rows(block []int32, i, d int) (succ, pred []int32) {
	r := block[d*i:][:d:d]
	return r[: d/2 : d/2], r[d/2:]
}

// rows returns member i's rows of the adopted topology.
func (nw *Network) rows(i int) (succ, pred []int32) { return rows(nw.topo, i, nw.cfg.D) }

// indexOf returns a member's index in Members(), or −1 for an id that
// is not a member.
func (nw *Network) indexOf(id int) int {
	if i, ok := slices.BinarySearch(nw.members, id); ok {
		return i
	}
	return -1
}

// Members returns the current member ids (sorted; do not modify).
func (nw *Network) Members() []int { return nw.members }

// N returns the current member count.
func (nw *Network) N() int { return len(nw.members) }

// NeighborsOf returns the current neighbors of a member with
// multiplicity (predecessor and successor in each Hamilton cycle).
func (nw *Network) NeighborsOf(id int) []int {
	i := nw.indexOf(id)
	if i < 0 {
		return []int{}
	}
	succ, pred := nw.rows(i)
	out := make([]int, 0, 2*len(succ))
	for c := range succ {
		out = append(out, int(pred[c]), int(succ[c]))
	}
	return out
}

func (nw *Network) idOf(v int) sim.NodeID { return sim.NodeID(v + 1) }

// wrap layers the reliable-delivery endpoint around a protocol handler
// when Config.Reliable is enabled; the identity otherwise.
func (nw *Network) wrap(h sim.Handler) sim.Handler {
	if !nw.cfg.Reliable.Enabled() {
		return h
	}
	return reliable.Wrap(nw.cfg.Seed, nw.cfg.Reliable, nw.stretch, h)
}

// RunEpoch performs one reconfiguration epoch: the given joiners enter
// and the given members leave, the whole topology is resampled, and
// the report summarizes validity, connectivity and the congestion
// quantities of Lemmas 11 and 12. It returns the ids assigned to the
// joiners along with the report.
func (nw *Network) RunEpoch(joins []JoinSpec, leaves []int) (EpochReport, []int) {
	nw.epoch++
	var epochStart time.Time
	if nw.trace != nil {
		epochStart = time.Now()
	}
	n := len(nw.members)
	nc := nw.cfg.D / 2
	// The old members index the arena in member order; joiners follow.
	a := newEpochArena(n, len(joins), nw.cfg.D)

	// Mark leavers.
	for _, id := range leaves {
		i := nw.indexOf(id)
		if i < 0 {
			panic(fmt.Sprintf("core: leaver %d is not a member", id))
		}
		if a.slots[i].leaving {
			panic(fmt.Sprintf("core: duplicate leaver %d", id))
		}
		a.slots[i].leaving = true
	}

	nNew := n - len(leaves) + len(joins)
	if nNew < 3 {
		panic("core: epoch would leave fewer than 3 members")
	}

	// Count joiners per sponsor to size the sampling budget.
	hosted := make([]int32, n)
	maxJoin := 0
	for _, j := range joins {
		i := nw.indexOf(j.Sponsor)
		if i < 0 || a.slots[i].leaving {
			panic(fmt.Sprintf("core: sponsor %d not a staying member", j.Sponsor))
		}
		hosted[i]++
		maxJoin = max(maxJoin, int(hosted[i]))
	}

	// The new topology block has a row per new member, in member order:
	// the staying members' in their order, then the joiners', whose ids
	// come from nextID and so exceed every member's.
	a.topo = make([]int32, nNew*nw.cfg.D)
	row := int32(0)
	for i := range n {
		if !a.slots[i].leaving {
			a.slots[i].row = row
			row++
		}
	}

	// Sampling parameters: every staying node needs d/2·(1+hosted)
	// samples; the paper runs polylogarithmically many primitive
	// instances in parallel, which we realize as one instance with a
	// proportionally larger budget constant c.
	need := float64(nc*(1+maxJoin) + 1)
	c := need/math.Log2(float64(n)) + 1
	params := sampling.HGraphParams{N: n, D: nw.cfg.D, Alpha: nw.cfg.Alpha, Epsilon: nw.cfg.Epsilon, C: c}
	T, K := params.T(), doublingSteps(n)
	plan := &epochPlan{
		epoch:    nw.epoch,
		params:   params,
		sampling: sampling.NewRun(params, nw.idOf, nw.budget),
		arena:    a,
		T:        T,
		doubling: K,
		rounds:   EpochRounds(T, K),
		idBits:   sim.IDBits(n),
	}
	nw.plan = plan

	// Spawn joiners; they announce themselves in round 1.
	joinerIDs := make([]int, len(joins))
	for i, j := range joins {
		id := nw.nextID
		nw.nextID++
		joinerIDs[i] = id
		a.slots[n+i] = slot{sponsor: int32(j.Sponsor), row: row + int32(i)}
		nw.net.SpawnHandler(nw.idOf(id), nw.wrap(&coreNode{nw: nw, id: id, ix: int32(n + i), joining: true}))
	}

	if nw.budget != nil {
		*nw.budget = sampling.BudgetStats{}
	}
	// The kernel's work log holds this epoch's rounds only: nothing reads
	// an earlier epoch's, and truncating keeps it bounded.
	nw.net.ResetWork()
	// With a reliable layer the epoch's protocol rounds are stretched:
	// one protocol round per `stretch` sim rounds, the in-between rounds
	// carrying acks and retransmissions. stretch is 1 otherwise, and on
	// spread-free models, so legacy timing is untouched.
	nw.net.Run(plan.rounds * nw.stretch)
	plan.sampling = nil
	if nw.budget != nil {
		// Sampling occupies epoch rounds 2..2T+1 exclusively: hellos are
		// round 1, placements round 2T+2, so the sim-level message count
		// over those rounds is exactly the batch count. Stretched epochs
		// (stretch > 1) interleave the sampling batches with empty carrier
		// rounds and shift every phase's sim-round index, so no round
		// window delimits the sampling sub-phase: the window stays invalid
		// and checkBudget audits nothing for the epoch.
		w := budgetWindow{epoch: nw.epoch, budget: *nw.budget, valid: nw.stretch == 1}
		if w.valid {
			for _, rw := range nw.net.Work()[1 : 1+2*T] {
				w.messages += int64(rw.Messages)
			}
		}
		nw.lastWindow = w
	}

	// The new member set, in the order of the block's rows.
	newMembers := make([]int, 0, nNew)
	for i, id := range nw.members {
		if !a.slots[i].leaving {
			newMembers = append(newMembers, id)
		}
	}
	newMembers = append(newMembers, joinerIDs...)

	rep := EpochReport{
		Epoch:  nw.epoch,
		Rounds: plan.rounds,
		NOld:   n,
		NNew:   nNew,
	}
	for _, w := range nw.net.Work() {
		if w.MaxNodeBits > rep.MaxNodeBits {
			rep.MaxNodeBits = w.MaxNodeBits
		}
	}

	for _, st := range a.slots {
		for k, f := range st.fails {
			rep.FailureKinds[k] += f
			rep.Failures += f
		}
	}
	// Congestion and empty segments are measured on the OLD node set
	// (the placements landed on old members).
	for _, cs := range a.cycles {
		rep.MaxChosen = max(rep.MaxChosen, len(cs.seq))
	}
	rep.MaxEmptySegment = nw.maxEmptySegment(a)
	plan.arena = nil

	// Adopt the new topology: the block the nodes wrote their rows to.
	nw.topo, nw.members = a.topo, newMembers

	rep.Valid = nw.ValidateTopology() == nil
	rep.Connected = nw.connected(rep.Valid)
	if nw.trace != nil {
		nw.trace.EpochSpan(nw.traceScope, rep.Epoch, rep.Rounds, rep.NOld, rep.NNew, epochStart)
	}
	// Audit tick: the topology is only consistent at epoch boundaries
	// (mid-epoch it is being resampled), so the engine's round cadence
	// is driven once per epoch here.
	nw.audit.SetEpoch(nw.epoch)
	nw.audit.Tick(nw.net.Round())
	return rep, joinerIDs
}

// ValidateTopology is the §2.2/§4 structural rule; nil means legal. A
// topology is legal iff n ≥ 3 and each cycle's walk (cycleOrder) from
// members[0] reaches all n members over links that hold: every member's
// successor is another member whose predecessor points back, and the
// cycle is one Hamilton cycle over the member set. The
// hamilton-topology checker and EpochReport.Valid are this test, and the
// repair's suspect scan (suspectMembers) reads the same link and walk.
func (nw *Network) ValidateTopology() error {
	n := len(nw.members)
	if n < 3 {
		return fmt.Errorf("core: too few members (%d)", n)
	}
	for c := 0; c < nw.cfg.D/2; c++ {
		switch _, reached, broken := nw.cycleOrder(c); {
		case broken >= 0:
			return fmt.Errorf("core: member %d has a broken link in cycle %d", nw.members[broken], c)
		case reached < n:
			return fmt.Errorf("core: cycle %d reaches %d of %d members", c, reached, n)
		}
	}
	return nil
}

// maxEmptySegment scans every old cycle for the longest run of
// inactive nodes (Lemma 12), using the placements the nodes collected
// in a. Runs that wrap around the cycle's scan origin are merged.
func (nw *Network) maxEmptySegment(a *epochArena) int {
	nc := nw.cfg.D / 2
	n := len(nw.members)
	maxSeg := 0
	for c := 0; c < nc; c++ {
		i := 0
		run := 0     // current run of inactive nodes
		first := -1  // scan index of the first active node
		leading := 0 // inactive prefix before the first active node
		for k := 0; k < n; k++ {
			if len(a.cycles[i*nc+c].seq) > 0 {
				if first < 0 {
					first = k
					leading = run
				}
				if run > maxSeg {
					maxSeg = run
				}
				run = 0
			} else {
				run++
			}
			if i, _ = nw.link(i, c); i < 0 {
				return maxSeg
			}
		}
		if first < 0 {
			// No active node at all: the whole cycle is one empty segment.
			if n > maxSeg {
				maxSeg = n
			}
		} else if run+leading > maxSeg {
			// Wrap-around: the trailing run continues into the prefix.
			maxSeg = run + leading
		}
	}
	return maxSeg
}

// BuildGraph materializes the current topology as a multigraph over
// compacted vertex indices (in Members() order).
func (nw *Network) BuildGraph() *graph.Graph {
	g := graph.New(len(nw.members))
	for i := range nw.members {
		for c := 0; c < nw.cfg.D/2; c++ {
			if j, _ := nw.link(i, c); j >= 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// connected reports whether the links join every member, as
// BuildGraph().IsConnected() would: a valid topology is connected
// (cycle 0 alone reaches all members), and an invalid one is answered by
// a union-find over the same links, with no graph built.
func (nw *Network) connected(valid bool) bool {
	if valid {
		return true
	}
	n := len(nw.members)
	var uf graph.UnionFind
	uf.Reset(n)
	for i := range n {
		for c := 0; c < nw.cfg.D/2; c++ {
			if j, _ := nw.link(i, c); j >= 0 {
				uf.Union(int32(i), int32(j))
			}
		}
	}
	return n <= 1 || uf.Size(0) == n
}

// Shutdown removes all nodes from the simulator.
func (nw *Network) Shutdown() { nw.net.Shutdown() }

// DeferredMessages returns the cumulative count of messages the
// discrete-event scheduler delivered after their synchronous round+1
// deadline (zero unless Config.Latency has spread).
func (nw *Network) DeferredMessages() int64 { return nw.net.DeferredMessages() }

// ReliabilityStats returns the cumulative control-lane totals of the
// reliable endpoints (all zero unless Config.Reliable is enabled).
func (nw *Network) ReliabilityStats() sim.ReliabilityTotals { return nw.net.ReliabilityStats() }

// Stretch returns the sim rounds per protocol round: 1 in the legacy
// configuration, Config.Reliable's effective stretch otherwise. Every
// epoch occupies EpochReport.Rounds × Stretch() simulator rounds.
func (nw *Network) Stretch() int { return nw.stretch }
