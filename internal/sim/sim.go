// Package sim implements the synchronous message-passing model of
// Section 1.1 of the paper: all nodes operate in synchronized rounds,
// each consisting of a receive step, a local-computation step, and a
// send step. Every node may send a distinct message to any node whose
// identifier it knows (the overlay-network assumption the sampling
// primitives exploit).
//
// Execution model: node programs are event-driven state machines — a
// Handler whose OnRound method is invoked inline, once per round, by
// the kernel (or by one of its shard workers). A handler node owns no
// goroutine, no channel, and no stack: its entire footprint is its
// dense slot in the node table plus whatever state the Handler value
// itself carries, which is what lets a single process simulate millions
// of nodes. Every protocol in the repository is written as a Handler.
// Spawn, Proc and Ctx.NextRound (adapter.go) run a blocking program on a
// private goroutine over the same kernel; nothing but this package's
// tests and one bench probe (sim.coroutine_ns_per_msg) calls them, and
// they go when that probe does.
//
// All randomness is deterministic: node v's generator is derived from
// (network seed, v), node programs touch only their own state, and
// inboxes are delivered in canonical (sender spawn order, send
// sequence) order, so results are exactly reproducible for any worker
// configuration.
//
// Layout: every live node occupies a dense int32 slot in a slice-backed
// node table; the NodeID→slot map is consulted only at the spawn/kill
// boundary and once per Send (with a per-node cache in front), so the
// round loop itself performs zero map operations. The per-round
// DoS-blocked set and the kill-request set are bitsets indexed by slot.
// With Config.Shards > 1 the compute (receive + handler execution) and
// send/delivery steps run on a persistent worker pool, partitioned so
// that results — tables, work logs, and tracer accounting — are
// byte-identical for every shard count (see shard.go for the argument).
//
// DoS semantics follow the paper: a message sent from v to w at round i
// is received iff v is non-blocked in round i and w is non-blocked in
// rounds i and i+1. A blocked node still performs local computation but
// its sends are dropped and it receives nothing.
package sim

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync/atomic"

	"overlaynet/internal/rng"
)

// NodeID identifies a node. The paper's ids have O(log n) bits; we use
// 64-bit ids and account message sizes explicitly via Message.Bits.
type NodeID uint64

// Message is a single point-to-point message delivered one round after
// it is sent.
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
	// Bits is the size used for communication-work accounting
	// (the paper counts bits sent plus bits received per round).
	Bits int

	seq  uint64 // per-sender send sequence, for canonical inbox order
	slot int32  // receiver's dense slot, resolved at Send time; -1 = no such node
	lane uint8  // laneProtocol, or a control lane (reliability traffic)
}

// Message lanes. Protocol-lane messages are the paper's messages and
// feed RoundWork.Messages/TotalBits/MaxNodeBits, the Delivered count,
// and the per-reason drop ledger. Control-lane messages carry the
// reliable-delivery layer's traffic (acks and retransmit copies); they
// ride the same delivery machinery — DoS blocking, fault injection, and
// the event scheduler all apply — but are accounted separately
// (RoundWork.CtlMessages/CtlBits, ReliabilityRoundStats) and never
// enter the exact work-conservation ledger, so a run whose reliability
// layer stays silent is byte-identical to one without it.
const (
	laneProtocol uint8 = iota
	laneAck
	laneRetransmit
)

// Handler is an event-driven node program: the kernel calls OnRound
// once per round, inline, with the messages delivered to the node this
// round. The handler may call Ctx.Send any number of times and returns
// whether the node stays in the network; returning false ends the
// node's life (it leaves after its final sends are delivered). The
// inbox slice is only valid for the duration of the call: the kernel
// recycles the buffer, so handlers must copy any messages they keep.
//
// OnRound may run on any kernel worker, but never concurrently with
// itself or with another node's handler touching shared mutable state
// it owns exclusively; a handler must confine itself to its own node's
// state (plus Ctx) for results to stay deterministic.
type Handler interface {
	OnRound(ctx *Ctx, inbox []Message) bool
}

// HandlerFunc adapts a plain function to the Handler interface.
type HandlerFunc func(ctx *Ctx, inbox []Message) bool

// OnRound implements Handler.
func (f HandlerFunc) OnRound(ctx *Ctx, inbox []Message) bool { return f(ctx, inbox) }

// Proc is a node program in blocking-coroutine form (bench-only, see the
// package comment). It is invoked in the node's first round; it may
// compute, call Ctx.Send any number of times, and must call
// Ctx.NextRound to end its round. Returning ends the node's life (it
// leaves the network after its final sends are delivered).
type Proc func(ctx *Ctx)

// Config configures a Network.
type Config struct {
	// Seed determines all randomness in the network.
	Seed uint64
	// Shards is the number of workers that partition the intra-round
	// compute and send/delivery steps. 0 consults the OVERLAYNET_SHARDS
	// environment variable (useful to force the sharded path in CI),
	// falling back to 1 (fully serial). Any value produces byte-
	// identical results at a fixed seed; values > 1 only pay off on
	// multi-core machines and large networks.
	Shards int
	// SizeHint, when positive, presizes the node table, id map, and
	// slot-indexed bitsets for that many nodes. Purely a capacity hint:
	// it never changes results, only avoids the incremental growth
	// (and its transient copies) while spawning a large network — worth
	// setting for the n=1M scale runs, irrelevant below ~100k.
	SizeHint int
	// Latency, when enabled (non-zero Kind), switches the kernel to the
	// deterministic discrete-event scheduler: each message is stamped
	// with an arrival tick drawn from the per-edge distribution and
	// delivered in the round containing that tick, possibly several
	// rounds after it was sent (see latency.go for the determinism
	// argument). The zero value keeps the synchronous round model.
	Latency Latency
}

// envShards reads the OVERLAYNET_SHARDS default once.
var envShards = func() func() int {
	var once atomic.Int64
	return func() int {
		if v := once.Load(); v != 0 {
			return int(v - 1)
		}
		v, _ := strconv.Atoi(os.Getenv("OVERLAYNET_SHARDS"))
		once.Store(int64(v) + 1)
		return v
	}
}()

// maxShards bounds the worker pool; the delivery step scans every
// outbox once per shard, so very high counts cost more than they win.
const maxShards = 64

// RoundWork summarizes the communication work of one round. The
// protocol-lane triple (Messages, TotalBits, MaxNodeBits) measures
// exactly what the paper's theorems bound; control-lane traffic — the
// reliable-delivery layer's acks and retransmit copies — is accounted
// in its own pair so the overhead of reliability is visible without
// perturbing the paper-semantics columns.
type RoundWork struct {
	Round       int
	Messages    int   // protocol messages actually sent (sender non-blocked)
	TotalBits   int64 // sum over nodes of sent+received protocol bits
	MaxNodeBits int64 // maximum over nodes of sent+received protocol bits
	CtlMessages int   // control-lane (ack + retransmit) messages sent
	CtlBits     int64 // control-lane bits sent
}

// ackDelayBuckets sizes the log2 histogram of ack round trips: bucket
// b counts acks whose send→ack delay was in [2^(b-1), 2^b) rounds
// (bucket 0 is delay <= 1), with the last bucket absorbing the tail.
const ackDelayBuckets = 8

// ReliabilityRoundStats is one round's reliability-layer activity: the
// control-lane traffic split by kind, the delivery failures endpoints
// reported, stale deliveries they discarded, and the ack-delay
// histogram. Every field is a pure function of the seed and the run
// (sums over per-node deterministic state, merged in canonical order),
// so the stats are identical at any -procs/-shards and safe in
// byte-compared artifacts.
type ReliabilityRoundStats struct {
	Retransmits int // retransmit copies sent (control lane)
	Acks        int // acks sent (control lane)
	Failures    int // delivery failures reported via Ctx.ReportDeliveryFailure
	Stale       int // stale deliveries discarded via Ctx.ReportStaleDelivery
	CtlMessages int
	CtlBits     int64
	AckDelay    [ackDelayBuckets]int32
}

func (s *ReliabilityRoundStats) any() bool {
	return s.Retransmits != 0 || s.Acks != 0 || s.Failures != 0 ||
		s.Stale != 0 || s.CtlMessages != 0
}

func (s *ReliabilityRoundStats) add(o *ReliabilityRoundStats) {
	s.Retransmits += o.Retransmits
	s.Acks += o.Acks
	s.Failures += o.Failures
	s.Stale += o.Stale
	s.CtlMessages += o.CtlMessages
	s.CtlBits += o.CtlBits
	for i := range s.AckDelay {
		s.AckDelay[i] += o.AckDelay[i]
	}
}

// ReliabilityTotals is the cumulative reliability-layer activity of a
// network, for drivers' report columns (retransmit overhead, delivery
// failures). Deterministic like the per-round stats.
type ReliabilityTotals struct {
	Retransmits int64
	Acks        int64
	Failures    int64
	Stale       int64
	CtlMessages int64
	CtlBits     int64
}

type haltSignal struct{}

// nodeState is one dense slot of the node table. The two inbox buffers
// are reused round after round: while the node consumes one, the send
// step fills the other, so the steady state allocates nothing. Slots
// are recycled through a free list when nodes depart; their buffers
// stay with the slot for the next occupant.
type nodeState struct {
	id     NodeID
	h      Handler
	ctx    *Ctx
	outbox []Message
	inbox  [2][]Message // double-buffered receive queues
	fill   uint8        // inbox index accepting the current round's sends
	live   bool         // slot is occupied
	halted bool         // handler returned false or node was killed
	seq    uint64
	bits   int64 // sent+received bits in the current round
	// future is the node's event calendar in async mode: messages
	// parked until the round containing their arrival tick. Unordered;
	// the compute step extracts and sorts the due entries. Always empty
	// in synchronous mode.
	future []pendingMsg
}

// Network coordinates the synchronous rounds. It is not safe for
// concurrent use; Spawn, SetBlocked, Step and the accessors must all be
// called from a single driver goroutine, between rounds.
type Network struct {
	root  *rng.RNG
	round int
	slots []nodeState      // dense node table, indexed by slot
	free  []int32          // recycled slots (LIFO)
	nodes map[NodeID]int32 // id → slot; touched only at Spawn/Kill/Send boundaries
	order []int32          // live slots in spawn order; determines scheduling

	pendingBlocked Bitset // applies to the next Step (built by SetBlocked)
	pendingAny     bool
	blocked        Bitset // blocked set of the round in progress
	blockedAny     bool
	killReq        Bitset // Kill/Shutdown requests, indexed by slot

	work       []RoundWork
	recordWork bool

	// adapterLive counts coroutine-adapter goroutines currently alive,
	// for the teardown leak audit (AdapterGoroutines). Atomic because
	// shard workers start and retire adapters concurrently.
	adapterLive atomic.Int64

	// Sharded execution (see shard.go). acc holds one accumulator per
	// shard; pool is the persistent worker pool, started lazily.
	shards int
	acc    []shardAcc
	pool   *shardPool

	// tracer, when non-nil, receives lifecycle events and drop-reason
	// accounting (see trace.go). The scratch slices collect the
	// per-node inbox-size and bits samples for RoundStats; they are
	// reused round after round so tracing adds no steady-state
	// allocations beyond its first round. shardObs caches whether the
	// tracer also wants per-shard timing.
	tracer     Tracer
	shardObs   ShardObserver
	sampleObs  RoundSampler
	traceInbox []int64
	traceBits  []int64

	// injector, when non-nil, is consulted for every otherwise-
	// deliverable message (see inject.go). faultObs caches whether the
	// tracer wants duplication events; dupScratch buffers them on the
	// serial path so they replay after the send step, matching the
	// sharded call order.
	injector   Injector
	faultObs   FaultObserver
	dupScratch []dupEvent

	// Discrete-event scheduler state (latency.go). async mirrors
	// lat.Enabled(); latSeed feeds the pure per-edge delay hash;
	// deferred counts messages (cumulatively) whose sampled delay
	// pushed arrival past the next round — a deterministic statistic.
	// roundDeferred accumulates the serial path's per-round count;
	// latObs caches whether the tracer wants it.
	lat           Latency
	async         bool
	latSeed       uint64
	deferred      int64
	roundDeferred int64
	latObs        LatencyObserver

	// Reliability-layer accounting (see the lane constants). roundRel
	// accumulates the serial path's per-round stats (the sharded path
	// merges per-worker accumulators into it); relTotals is cumulative;
	// relObs caches whether the tracer wants the per-round stats. All
	// zero unless nodes actually use the control-lane sends, so a
	// reliability-free run is untouched.
	roundRel  ReliabilityRoundStats
	relTotals ReliabilityTotals
	relObs    ReliabilityObserver
}

// NewNetwork returns an empty network.
func NewNetwork(cfg Config) *Network {
	shards := cfg.Shards
	if shards == 0 {
		shards = envShards()
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	hint := cfg.SizeHint
	if hint < 0 {
		hint = 0
	}
	if err := cfg.Latency.Validate(); err != nil {
		panic("sim: " + err.Error())
	}
	n := &Network{
		root:       rng.New(cfg.Seed),
		nodes:      make(map[NodeID]int32, hint),
		recordWork: true,
		shards:     shards,
		lat:        cfg.Latency,
		async:      cfg.Latency.Enabled(),
		latSeed:    cfg.Seed,
	}
	if hint > 0 {
		n.slots = make([]nodeState, 0, hint)
		n.order = make([]int32, 0, hint)
		n.blocked = GrowBitset(nil, hint)
		n.pendingBlocked = GrowBitset(nil, hint)
		n.killReq = GrowBitset(nil, hint)
	}
	if shards > 1 {
		n.acc = make([]shardAcc, shards)
	}
	return n
}

// Shards returns the configured worker count for the intra-round steps.
func (n *Network) Shards() int { return n.shards }

// Async reports whether the discrete-event scheduler is active.
func (n *Network) Async() bool { return n.async }

// DeferredMessages returns the cumulative number of messages whose
// sampled latency pushed their arrival beyond the next round — the
// scheduler's headline divergence-from-synchrony statistic. It is a
// pure function of the seed and the run, identical at any shard count,
// so it is safe in byte-compared artifacts. Always 0 in synchronous
// mode and in zero-spread configurations with delay <= 1 round.
func (n *Network) DeferredMessages() int64 { return n.deferred }

// ReliabilityStats returns the cumulative reliability-layer activity:
// retransmit copies and acks sent over the control lane, delivery
// failures and stale deliveries reported by endpoints. Deterministic at
// any -procs/-shards; all zero when no node uses the reliable layer.
func (n *Network) ReliabilityStats() ReliabilityTotals { return n.relTotals }

// DisableWorkLog turns off per-round work summaries (useful for very
// long runs where the slice would grow without bound).
func (n *Network) DisableWorkLog() { n.recordWork = false }

// ResetWork truncates the per-round work log, keeping its capacity.
// Long-horizon drivers can call it between epochs to keep memory
// bounded while still measuring each epoch (unlike DisableWorkLog,
// which is all-or-nothing).
func (n *Network) ResetWork() { n.work = n.work[:0] }

// Round returns the number of completed rounds.
func (n *Network) Round() int { return n.round }

// NumAlive returns the number of live nodes.
func (n *Network) NumAlive() int { return len(n.order) }

// AdapterGoroutines returns the number of coroutine-adapter goroutines
// currently alive. It is 0 for a network of pure handler nodes, and
// must return to 0 after Shutdown (the teardown leak audit asserts
// both).
func (n *Network) AdapterGoroutines() int { return int(n.adapterLive.Load()) }

// Alive returns the ids of live nodes in spawn order.
func (n *Network) Alive() []NodeID {
	ids := make([]NodeID, len(n.order))
	for i, s := range n.order {
		ids[i] = n.slots[s].id
	}
	return ids
}

// Exists reports whether a node with the given id is currently alive.
func (n *Network) Exists(id NodeID) bool {
	_, ok := n.nodes[id]
	return ok
}

// Work returns the per-round communication-work log.
func (n *Network) Work() []RoundWork { return n.work }

// allocSlot pops a recycled slot or extends the node table (growing the
// slot-indexed bitsets alongside it).
func (n *Network) allocSlot() int32 {
	if k := len(n.free); k > 0 {
		s := n.free[k-1]
		n.free = n.free[:k-1]
		return s
	}
	s := int32(len(n.slots))
	n.slots = append(n.slots, nodeState{})
	n.blocked = GrowBitset(n.blocked, len(n.slots))
	n.pendingBlocked = GrowBitset(n.pendingBlocked, len(n.slots))
	n.killReq = GrowBitset(n.killReq, len(n.slots))
	return s
}

// freeSlot returns a departed node's slot to the free list. Buffer
// capacity stays with the slot for reuse, but message contents are
// zeroed so payload references are released, the handler and Ctx are
// dropped, and all slot-indexed bits are cleared for the next occupant.
// A coroutine adapter whose goroutine is still parked (the node was
// killed rather than returning) is unwound here.
func (n *Network) freeSlot(s int32) {
	st := &n.slots[s]
	if a, ok := st.h.(*procAdapter); ok {
		a.stop()
	}
	for k := range st.inbox {
		clear(st.inbox[k])
		st.inbox[k] = st.inbox[k][:0]
	}
	clear(st.outbox)
	st.outbox = st.outbox[:0]
	if len(st.future) != 0 {
		// In-flight messages to a departed node are absorbed, exactly
		// like the synchronous kernel's undelivered inbox; clearing also
		// keeps them from reaching the slot's next occupant.
		clear(st.future)
		st.future = st.future[:0]
	}
	st.id = 0
	st.h = nil
	st.ctx = nil
	st.live = false
	st.halted = false
	st.fill = 0
	st.seq = 0
	st.bits = 0
	n.killReq.Unset(s)
	n.blocked.Unset(s)
	n.pendingBlocked.Unset(s)
	n.free = append(n.free, s)
}

// SpawnHandler adds an event-driven node running h. The node takes part
// starting with the next Step and costs no goroutine, channel, or
// stack. Ids must be unique across the lifetime of the network (the
// paper assumes every id is used at most once).
func (n *Network) SpawnHandler(id NodeID, h Handler) {
	if h == nil {
		panic("sim: nil handler")
	}
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("sim: duplicate node id %d", id))
	}
	s := n.allocSlot()
	st := &n.slots[s]
	st.id = id
	st.live = true
	st.h = h
	st.ctx = &Ctx{net: n, slot: s, rng: *n.root.Split(uint64(id))}
	n.nodes[id] = s
	if n.tracer != nil {
		n.tracer.NodeSpawned(n.round, id)
	}
	n.order = append(n.order, s)
}

// Spawn adds a node running proc in blocking-coroutine form: an adapter
// gives the proc a private goroutine that parks between rounds, at a
// cost of roughly one goroutine stack plus two channels per node.
// Bench-only (see the package comment); protocols use SpawnHandler.
func (n *Network) Spawn(id NodeID, proc Proc) {
	n.SpawnHandler(id, &procAdapter{net: n, proc: proc})
}

// Kill forces the node to stop at its next round barrier (a crash: it
// performs no further computation, then vanishes at the end of the
// round — messages addressed to it in its final round are absorbed, not
// counted as drops, exactly as for a node whose program returns).
func (n *Network) Kill(id NodeID) {
	if s, ok := n.nodes[id]; ok {
		n.killReq.Set(s)
		if n.tracer != nil {
			n.tracer.NodeKilled(n.round, id)
		}
	}
}

// SetBlocked sets the DoS-blocked node set for the next Step only. The
// set is copied into an internal Bitset at call time: later mutations
// of the map do not affect the round, and ids that do not name a live
// node at call time are ignored.
func (n *Network) SetBlocked(blocked map[NodeID]bool) {
	if n.pendingAny {
		n.pendingBlocked.Zero()
		n.pendingAny = false
	}
	for id, b := range blocked {
		if !b {
			continue
		}
		if s, ok := n.nodes[id]; ok {
			n.pendingBlocked.Set(s)
			n.pendingAny = true
		}
	}
}

// Step executes one synchronous round: deliver + compute, then collect
// sends.
func (n *Network) Step() {
	n.blocked, n.pendingBlocked = n.pendingBlocked, n.blocked
	n.blockedAny, n.pendingAny = n.pendingAny, false
	n.round++

	aliveAtStart, nblocked := len(n.order), 0
	if n.tracer != nil {
		nblocked = n.traceRoundStart()
	}

	var messages int
	var totalBits, maxBits int64
	var anyHalted bool
	n.roundDeferred = 0
	n.roundRel = ReliabilityRoundStats{}

	if n.shards > 1 {
		messages, totalBits, maxBits, anyHalted = n.stepSharded()
	} else {
		// Compute step: hand each node the inbox filled during the
		// previous send step (empty if blocked in this round — the
		// "receiver non-blocked in round i+1" half of the rule; the
		// other half was enforced at send time) and run its handler
		// inline.
		n.computeRange(0, len(n.order), nil)
		// Send step: drain outboxes in deterministic spawn order,
		// appending each message to its receiver's fill buffer (or, in
		// async mode, parking it in the receiver's event calendar).
		if n.async {
			messages, totalBits, maxBits, anyHalted = n.sendRangeAsync(0, len(n.order), 0, int32(len(n.slots)), nil)
		} else {
			messages, totalBits, maxBits, anyHalted = n.sendRange(0, len(n.order), 0, int32(len(n.slots)), nil)
		}
		if len(n.dupScratch) > 0 {
			for _, d := range n.dupScratch {
				n.faultObs.MessageDuplicated(n.round, d.from, d.to, d.bits, d.copies)
			}
			n.dupScratch = n.dupScratch[:0]
		}
	}
	if n.async {
		n.deferred += n.roundDeferred
		// Fire only on nonzero counts: a zero-spread async run then
		// produces exactly the synchronous run's tracer call sequence.
		if n.latObs != nil && n.roundDeferred > 0 {
			n.latObs.RoundDeferred(n.round, int(n.roundDeferred))
		}
	}

	// Reliability flush: totals accumulate, and the tracer extension
	// fires only on rounds with activity — a run whose reliable layer
	// stays silent produces exactly the pre-reliability call sequence.
	if rel := &n.roundRel; rel.any() {
		n.relTotals.Retransmits += int64(rel.Retransmits)
		n.relTotals.Acks += int64(rel.Acks)
		n.relTotals.Failures += int64(rel.Failures)
		n.relTotals.Stale += int64(rel.Stale)
		n.relTotals.CtlMessages += int64(rel.CtlMessages)
		n.relTotals.CtlBits += rel.CtlBits
		if n.relObs != nil {
			n.relObs.RoundReliability(n.round, *rel)
		}
	}

	if anyHalted {
		n.reap()
	}
	if n.blockedAny {
		n.blocked.Zero()
		n.blockedAny = false
	}
	if n.recordWork {
		n.work = append(n.work, RoundWork{
			Round:       n.round,
			Messages:    messages,
			TotalBits:   totalBits,
			MaxNodeBits: maxBits,
			CtlMessages: n.roundRel.CtlMessages,
			CtlBits:     n.roundRel.CtlBits,
		})
	}
	if n.tracer != nil {
		n.traceRoundEnd(aliveAtStart, nblocked, messages, totalBits, maxBits)
	}
}

// computeRange runs the merged receive + compute step for spawn-order
// positions [plo, phi): it clears the node's stale outbox from the
// previous round, hands over (or, for blocked receivers, drops) the
// pending inbox, and invokes the node's handler inline — unless a kill
// was requested, in which case the node halts without computing.
// acc != nil buffers tracer events and samples per shard instead of
// calling the tracer directly (workers must not touch it concurrently);
// they are replayed in canonical order afterwards.
func (n *Network) computeRange(plo, phi int, acc *shardAcc) {
	tr := n.tracer
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	for p := plo; p < phi; p++ {
		s := n.order[p]
		st := &slots[s]
		if out := st.outbox; len(out) != 0 {
			// Delivered last round by the send step; zero the entries so
			// payload references are released, keep the capacity.
			clear(out)
			st.outbox = out[:0]
		}
		var box []Message
		if n.async {
			// Event-scheduler receive step: deliver (or, when blocked,
			// drop) the calendar entries due this round.
			box = n.asyncInbox(st, s, acc)
		} else if anyB && blocked.Test(s) {
			// Drop the pending inbox without delivering it. Control-lane
			// messages are lost the same way but stay out of the exact
			// drop ledger (the reliable layer accounts them itself).
			pend := st.inbox[st.fill]
			if tr != nil {
				for i := range pend {
					if pend[i].lane == laneProtocol {
						n.traceDrop(acc, DropBlockedReceiverDeliveryRound, pend[i].From, st.id, pend[i].Bits)
					}
				}
			}
			clear(pend)
			st.inbox[st.fill] = pend[:0]
		} else {
			box = st.inbox[st.fill]
			st.fill ^= 1
			next := st.inbox[st.fill]
			clear(next)
			st.inbox[st.fill] = next[:0]
		}
		// Protocol-lane receive accounting: control-lane messages (acks,
		// retransmit copies) are delivered but contribute neither to the
		// node's bit footprint nor to the Delivered/inbox-depth samples,
		// so the paper-semantics columns are unchanged by reliability.
		var bits, nprot int64
		for i := range box {
			if box[i].lane == laneProtocol {
				bits += int64(box[i].Bits)
				nprot++
			}
		}
		st.bits = bits
		if tr != nil {
			if acc != nil {
				acc.inboxSamples = append(acc.inboxSamples, nprot)
			} else {
				n.traceInbox = append(n.traceInbox, nprot)
			}
		}
		// Compute: a killed node halts without running; otherwise the
		// handler executes inline on this worker. Its sends go to the
		// node's own outbox and its reads of shared structures (the id
		// map, other slots' identity fields) are of state that never
		// mutates during a round, so inline execution is safe and
		// deterministic under any shard partition.
		if n.killReq.Test(s) {
			st.halted = true
		} else if !st.h.OnRound(st.ctx, box) {
			st.halted = true
		}
		// Harvest the node's reliability reports (delivery failures,
		// stale discards, ack delays) into the round accumulator. The
		// dirty flag keeps this to one branch per node for the common
		// case of no reliable layer.
		if ctx := st.ctx; ctx.rel.dirty {
			if acc != nil {
				acc.rel.Failures += int(ctx.rel.failures)
				acc.rel.Stale += int(ctx.rel.stale)
				for b := range ctx.rel.ackDelay {
					acc.rel.AckDelay[b] += ctx.rel.ackDelay[b]
				}
			} else {
				n.roundRel.Failures += int(ctx.rel.failures)
				n.roundRel.Stale += int(ctx.rel.stale)
				for b := range ctx.rel.ackDelay {
					n.roundRel.AckDelay[b] += ctx.rel.ackDelay[b]
				}
			}
			ctx.rel = relNodeStats{}
		}
	}
}

// asyncInbox runs the event-scheduler receive step for one slot: it
// extracts the calendar entries whose delivery round has arrived, sorts
// them into the total order (arrival tick, send round, sender position,
// send sequence — see latency.go), and materializes them in the slot's
// inbox buffer — or, for a blocked receiver, drops them with
// DropBlockedReceiverDeliveryRound, exactly as the synchronous path
// drops a blocked node's pending inbox. The sort happens per receiver
// over its own calendar, so any shard partition of the receivers
// produces the same inboxes.
func (n *Network) asyncInbox(st *nodeState, s int32, acc *shardAcc) []Message {
	fut := st.future
	round := int32(n.round)
	d := 0
	for i := range fut {
		if fut[i].rnd <= round {
			fut[d], fut[i] = fut[i], fut[d]
			d++
		}
	}
	if d == 0 {
		return nil
	}
	due := fut[:d]
	slices.SortFunc(due, pendingLess)
	var box []Message
	if n.blockedAny && n.blocked.Test(s) {
		if n.tracer != nil {
			for i := range due {
				if due[i].m.lane == laneProtocol { // control lane stays out of the drop ledger
					n.traceDrop(acc, DropBlockedReceiverDeliveryRound, due[i].m.From, st.id, due[i].m.Bits)
				}
			}
		}
	} else {
		buf := st.inbox[0]
		clear(buf)
		buf = buf[:0]
		for i := range due {
			buf = append(buf, due[i].m)
		}
		st.inbox[0] = buf
		box = buf
	}
	// Retire the due entries: shift the keepers down, release payload
	// references from the vacated tail.
	k := copy(fut, fut[d:])
	clear(fut[k:])
	st.future = fut[:k]
	return box
}

// sendRange runs the send step. It scans every sender's outbox in spawn
// order and (a) appends messages whose receiver slot falls in
// [dlo, dhi) to that receiver's fill buffer — per-sender outboxes are
// already in send order, so every inbox ends up in canonical (sender
// spawn order, send sequence) order with no sorting pass — and (b) for
// sender positions in [plo, phi), performs the round's accounting:
// message and bit totals, drop events, and departure detection. In
// serial mode both ranges cover everything; under sharding each worker
// owns a contiguous receiver-slot range and a contiguous sender-
// position range, so the union of the shards reproduces the serial
// round exactly.
func (n *Network) sendRange(plo, phi int, dlo, dhi int32, acc *shardAcc) (messages int, totalBits, maxBits int64, anyHalted bool) {
	tr := n.tracer
	inj := n.injector
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	var rel ReliabilityRoundStats
	for p, norder := 0, len(n.order); p < norder; p++ {
		s := n.order[p]
		st := &slots[s]
		mine := p >= plo && p < phi
		out := st.outbox
		nctl := 0
		if anyB && blocked.Test(s) {
			// Blocked sender: the whole outbox is discarded. Control-lane
			// messages vanish uncounted, like the protocol sends (which
			// never enter Messages either).
			if mine && tr != nil {
				for i := range out {
					if out[i].lane == laneProtocol {
						n.traceDrop(acc, DropBlockedSender, out[i].From, out[i].To, out[i].Bits)
					}
				}
			}
		} else if inj == nil {
			// Fast path: no fault injection. This loop body is kept
			// free of the injector branch so a detached injector costs
			// one pointer check per sender, not one per message.
			for i := range out {
				m := &out[i]
				t := m.slot
				// Receiver must exist (slot resolved at send time) and be
				// non-blocked in the send round; the i+1 half of the rule
				// is checked at delivery.
				if t >= 0 && !(anyB && blocked.Test(t)) {
					if t >= dlo && t < dhi {
						rcv := &slots[t]
						rcv.inbox[rcv.fill] = append(rcv.inbox[rcv.fill], *m)
					}
				} else if mine && tr != nil && m.lane == laneProtocol {
					reason := DropBlockedReceiverSendRound
					if t < 0 {
						reason = DropDeadReceiver
					}
					n.traceDrop(acc, reason, m.From, m.To, m.Bits)
				}
				if mine {
					if m.lane == laneProtocol {
						st.bits += int64(m.Bits)
					} else {
						nctl++
						rel.CtlBits += int64(m.Bits)
						if m.lane == laneAck {
							rel.Acks++
						} else {
							rel.Retransmits++
						}
					}
				}
			}
			if mine {
				messages += len(out) - nctl
			}
		} else {
			for i := range out {
				m := &out[i]
				t := m.slot
				if t >= 0 && !(anyB && blocked.Test(t)) {
					// Fault injection: the injector is a pure function
					// of the message identity, so the delivering worker
					// and the accounting worker (which may differ under
					// sharding) reach the same decision. Control-lane
					// messages face the same faults but never enter the
					// drop/dup ledger.
					deliver := t >= dlo && t < dhi
					if deliver || (mine && tr != nil) {
						copies := inj.Deliveries(n.round, m.From, m.To, m.seq)
						if deliver {
							rcv := &slots[t]
							for c := 0; c < copies; c++ {
								rcv.inbox[rcv.fill] = append(rcv.inbox[rcv.fill], *m)
							}
						}
						if mine && tr != nil && m.lane == laneProtocol {
							if copies == 0 {
								n.traceDrop(acc, DropFaultInjected, m.From, m.To, m.Bits)
							} else if copies > 1 && n.faultObs != nil {
								n.traceDup(acc, m, copies)
							}
						}
					}
				} else if mine && tr != nil && m.lane == laneProtocol {
					reason := DropBlockedReceiverSendRound
					if t < 0 {
						reason = DropDeadReceiver
					}
					n.traceDrop(acc, reason, m.From, m.To, m.Bits)
				}
				if mine {
					if m.lane == laneProtocol {
						st.bits += int64(m.Bits)
					} else {
						nctl++
						rel.CtlBits += int64(m.Bits)
						if m.lane == laneAck {
							rel.Acks++
						} else {
							rel.Retransmits++
						}
					}
				}
			}
			if mine {
				messages += len(out) - nctl
			}
		}
		if mine {
			rel.CtlMessages += nctl
			totalBits += st.bits
			if st.bits > maxBits {
				maxBits = st.bits
			}
			if tr != nil {
				if acc != nil {
					acc.bitsSamples = append(acc.bitsSamples, st.bits)
				} else {
					n.traceBits = append(n.traceBits, st.bits)
				}
			}
			if st.halted {
				anyHalted = true
			}
		}
	}
	if rel.any() {
		if acc != nil {
			acc.rel.add(&rel)
		} else {
			n.roundRel.add(&rel)
		}
	}
	return messages, totalBits, maxBits, anyHalted
}

// sendRangeAsync is the event-scheduler send step: identical structure
// and accounting to sendRange, but instead of appending to the
// receiver's fill buffer each deliverable message is stamped with its
// arrival tick (a pure function of seed, round, and edge — every
// worker layout computes the same stamp) and parked in the receiver's
// calendar. The DoS send-round check, fault injection, drop reasons,
// and per-sender accounting are exactly those of sendRange; the
// delivery-round blocked check happens in asyncInbox when the entry
// comes due. Messages whose delay defers them past the next round are
// counted by the accounting worker (deferred is therefore deterministic
// too).
func (n *Network) sendRangeAsync(plo, phi int, dlo, dhi int32, acc *shardAcc) (messages int, totalBits, maxBits int64, anyHalted bool) {
	tr := n.tracer
	inj := n.injector
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	lat, latSeed := n.lat, n.latSeed
	round := n.round
	rtick := uint64(round) * tickScale
	var deferred int64
	var rel ReliabilityRoundStats
	for p, norder := 0, len(n.order); p < norder; p++ {
		s := n.order[p]
		st := &slots[s]
		mine := p >= plo && p < phi
		out := st.outbox
		nctl := 0
		if anyB && blocked.Test(s) {
			// Blocked sender: the whole outbox is discarded.
			if mine && tr != nil {
				for i := range out {
					if out[i].lane == laneProtocol {
						n.traceDrop(acc, DropBlockedSender, out[i].From, out[i].To, out[i].Bits)
					}
				}
			}
		} else {
			for i := range out {
				m := &out[i]
				t := m.slot
				if t >= 0 && !(anyB && blocked.Test(t)) {
					deliver := t >= dlo && t < dhi
					if deliver || mine {
						copies := 1
						if inj != nil {
							copies = inj.Deliveries(round, m.From, m.To, m.seq)
						}
						if copies > 0 {
							ticks := lat.delayTicks(latSeed, round, uint64(m.From), uint64(m.To))
							at := rtick + ticks
							ar := int32((at + tickScale - 1) / tickScale)
							if ar <= int32(round) {
								ar = int32(round) + 1
							}
							if deliver {
								rcv := &slots[t]
								pm := pendingMsg{m: *m, tick: at, srnd: int32(round), pos: int32(p), rnd: ar}
								for c := 0; c < copies; c++ {
									rcv.future = append(rcv.future, pm)
								}
							}
							if mine && ar > int32(round)+1 && m.lane == laneProtocol {
								deferred++
							}
						}
						if mine && tr != nil && m.lane == laneProtocol {
							if copies == 0 {
								n.traceDrop(acc, DropFaultInjected, m.From, m.To, m.Bits)
							} else if copies > 1 && n.faultObs != nil {
								n.traceDup(acc, m, copies)
							}
						}
					}
				} else if mine && tr != nil && m.lane == laneProtocol {
					reason := DropBlockedReceiverSendRound
					if t < 0 {
						reason = DropDeadReceiver
					}
					n.traceDrop(acc, reason, m.From, m.To, m.Bits)
				}
				if mine {
					if m.lane == laneProtocol {
						st.bits += int64(m.Bits)
					} else {
						nctl++
						rel.CtlBits += int64(m.Bits)
						if m.lane == laneAck {
							rel.Acks++
						} else {
							rel.Retransmits++
						}
					}
				}
			}
			if mine {
				messages += len(out) - nctl
			}
		}
		if mine {
			rel.CtlMessages += nctl
			totalBits += st.bits
			if st.bits > maxBits {
				maxBits = st.bits
			}
			if tr != nil {
				if acc != nil {
					acc.bitsSamples = append(acc.bitsSamples, st.bits)
				} else {
					n.traceBits = append(n.traceBits, st.bits)
				}
			}
			if st.halted {
				anyHalted = true
			}
		}
	}
	if rel.any() {
		if acc != nil {
			acc.rel.add(&rel)
		} else {
			n.roundRel.add(&rel)
		}
	}
	if acc != nil {
		acc.deferred = deferred
	} else {
		n.roundDeferred += deferred
	}
	return messages, totalBits, maxBits, anyHalted
}

// traceDrop reports one dropped protocol-lane message; callers have
// checked that a tracer is attached. The serial path tells the tracer
// directly; a shard worker (acc != nil) buffers the event for replay in
// canonical order after the step — delivery-round drops, which belong
// to the receive step, in a buffer of their own.
func (n *Network) traceDrop(acc *shardAcc, reason DropReason, from, to NodeID, bits int) {
	ev := dropEvent{from: from, to: to, bits: bits, reason: reason}
	switch {
	case acc == nil:
		n.tracer.MessageDropped(n.round, reason, from, to, bits)
	case reason == DropBlockedReceiverDeliveryRound:
		acc.recvDrops = append(acc.recvDrops, ev)
	default:
		acc.sendDrops = append(acc.sendDrops, ev)
	}
}

// traceDup buffers one injected duplication for the fault observer: on
// the serial path too, so that the events replay after the send step as
// they do under sharding.
func (n *Network) traceDup(acc *shardAcc, m *Message, copies int) {
	ev := dupEvent{from: m.From, to: m.To, bits: m.Bits, copies: copies}
	if acc != nil {
		acc.dups = append(acc.dups, ev)
	} else {
		n.dupScratch = append(n.dupScratch, ev)
	}
}

// reap removes departed nodes from the spawn order and recycles their
// slots. It runs serially at the end of a round, in spawn order, so
// slot reuse is identical for every shard count.
func (n *Network) reap() {
	alive := n.order[:0]
	for _, s := range n.order {
		st := &n.slots[s]
		if st.halted {
			delete(n.nodes, st.id)
			n.freeSlot(s)
		} else {
			alive = append(alive, s)
		}
	}
	n.order = alive
}

// Run executes the given number of rounds.
func (n *Network) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		n.Step()
	}
}

// Shutdown halts all remaining nodes and reaps any adapter goroutines.
// It is pure teardown: no round runs, so Round() and the work log are
// exactly as the last Step left them (no spurious RoundWork entry).
// Handler nodes simply have their slots recycled; coroutine adapters
// are woken with their kill flag set (all of them before any is waited
// on, so the unwinds overlap) and unwind through their NextRound park
// point. The shard worker pool, if started, is stopped as well.
func (n *Network) Shutdown() {
	// Phase 1: wake every parked adapter goroutine. The resume channels
	// are buffered, so the wakes do not serialize on the unwinds.
	for _, s := range n.order {
		if a, ok := n.slots[s].h.(*procAdapter); ok {
			a.interrupt()
		}
	}
	// Phase 2: freeSlot waits for each unwind (procAdapter.stop is a
	// no-op for adapters already retired in phase 1's interrupt wait or
	// never started).
	for _, s := range n.order {
		st := &n.slots[s]
		delete(n.nodes, st.id)
		n.freeSlot(s)
	}
	n.order = n.order[:0]
	n.stopPool()
}

// Ctx is a node's handle to the network. It must only be used from the
// node's own program — inside its Handler.OnRound call or on its Proc
// goroutine.
type Ctx struct {
	net  *Network
	slot int32
	// rng is embedded by value: a Ctx is heap-allocated and address-
	// stable for the node's lifetime, so holding the generator inline
	// saves one allocation per node — at n=1M that is a full object
	// (plus header) per node of footprint.
	rng     rng.RNG
	adapter *procAdapter // non-nil only for coroutine nodes
	// lookup is a tiny direct-mapped NodeID→slot cache in front of the
	// network's id map: protocols overwhelmingly re-send to the same
	// few neighbors, and a hit avoids the shared map probe entirely.
	// Hits are validated against the slot's current occupant, so a
	// stale entry (the receiver departed and its slot was recycled)
	// falls through to the map.
	lookup [lookupEntries]lookupEntry
	// sendHook, when set, intercepts Ctx.Send so a shim (the reliable-
	// delivery endpoint) can wrap outgoing protocol messages. The hook
	// runs on the node's own compute step and must itself use SendRaw/
	// SendAck/SendRetransmit to reach the wire.
	sendHook func(to NodeID, payload any, bits int)
	// rel accumulates the node's reliability reports for the current
	// round; the kernel harvests and clears it after OnRound.
	rel relNodeStats
}

// relNodeStats is the per-node, per-round scratch for reliability
// reports. The dirty flag lets the kernel skip the harvest entirely for
// nodes that never report (every node, when no reliable layer is
// attached).
type relNodeStats struct {
	dirty    bool
	failures int32
	stale    int32
	ackDelay [ackDelayBuckets]int32
}

const lookupEntries = 8

type lookupEntry struct {
	id   NodeID
	slot int32
	ok   bool
}

// resolve maps a receiver id to its dense slot, or -1 if no such node
// is currently alive. Called from the node's program during the
// compute step; the id map is never mutated while nodes compute, so
// the concurrent reads are safe.
func (c *Ctx) resolve(to NodeID) int32 {
	e := &c.lookup[uint64(to)&(lookupEntries-1)]
	if e.ok && e.id == to {
		s := e.slot
		st := &c.net.slots[s]
		if st.live && st.id == to {
			return s
		}
	}
	if s, ok := c.net.nodes[to]; ok {
		*e = lookupEntry{id: to, slot: s, ok: true}
		return s
	}
	// Negative results are not cached: the id may be spawned later,
	// and dead ids are never reused, so a miss stays correct.
	return -1
}

// ID returns the node's identifier.
func (c *Ctx) ID() NodeID { return c.net.slots[c.slot].id }

// Round returns the round currently being executed.
func (c *Ctx) Round() int { return c.net.round }

// RNG returns the node's private deterministic generator.
func (c *Ctx) RNG() *rng.RNG { return &c.rng }

// Send queues a message for delivery in the next round. bits is the
// message size for communication-work accounting. When a send hook is
// installed (SetSendHook) the message is handed to the hook instead,
// so a reliable-delivery shim can envelope it.
func (c *Ctx) Send(to NodeID, payload any, bits int) {
	if c.sendHook != nil {
		c.sendHook(to, payload, bits)
		return
	}
	c.sendRaw(to, payload, bits, laneProtocol)
}

// sendRaw queues a message on an explicit lane, bypassing the send
// hook. Every transmission — protocol envelope, ack, or retransmit
// copy — goes through here so lane choice is the only difference
// between them: all lanes share the same blocking, fault, and latency
// machinery.
func (c *Ctx) sendRaw(to NodeID, payload any, bits int, lane uint8) {
	st := &c.net.slots[c.slot]
	st.seq++
	st.outbox = append(st.outbox, Message{
		From:    st.id,
		To:      to,
		Payload: payload,
		Bits:    bits,
		seq:     st.seq,
		slot:    c.resolve(to),
		lane:    lane,
	})
}

// SetSendHook installs (or, with nil, removes) an interceptor for
// Ctx.Send. Intended for the reliable-delivery endpoint; the hook runs
// inline on the node's compute step.
func (c *Ctx) SetSendHook(h func(to NodeID, payload any, bits int)) { c.sendHook = h }

// SendRaw queues a protocol-lane message bypassing any send hook. The
// reliable endpoint uses it to emit envelopes that carry the wrapped
// message's original bits.
func (c *Ctx) SendRaw(to NodeID, payload any, bits int) {
	c.sendRaw(to, payload, bits, laneProtocol)
}

// SendAck queues a control-lane acknowledgement. Acks ride the same
// delivery machinery as protocol messages but are accounted separately
// and never enter the exact work-conservation ledger.
func (c *Ctx) SendAck(to NodeID, payload any, bits int) {
	c.sendRaw(to, payload, bits, laneAck)
}

// SendRetransmit queues a control-lane retransmission copy of an
// unacked envelope.
func (c *Ctx) SendRetransmit(to NodeID, payload any, bits int) {
	c.sendRaw(to, payload, bits, laneRetransmit)
}

// ReportDeliveryFailure records that the node's reliable layer
// exhausted its retransmit budget for one message and surfaced the loss
// to the protocol. Harvested into the round's reliability stats.
func (c *Ctx) ReportDeliveryFailure() {
	c.rel.dirty = true
	c.rel.failures++
}

// ReportStaleDelivery records an envelope that arrived after its
// protocol phase had already closed: it is acked (so the sender stops
// retransmitting) but discarded rather than delivered.
func (c *Ctx) ReportStaleDelivery() {
	c.rel.dirty = true
	c.rel.stale++
}

// ObserveAckDelay records the round-trip delay, in sim rounds, between
// an envelope's first transmission and its acknowledgement. Delays are
// bucketed by log2: bucket b covers [2^b, 2^(b+1)) rounds, with the
// last bucket open-ended.
func (c *Ctx) ObserveAckDelay(rounds int) {
	if rounds < 1 {
		rounds = 1
	}
	b := 0
	for v := rounds; v > 1 && b < ackDelayBuckets-1; v >>= 1 {
		b++
	}
	c.rel.dirty = true
	c.rel.ackDelay[b]++
}

// NextRound ends the node's current round and blocks until the next one
// begins, returning the messages delivered to the node. It is the
// coroutine form's round barrier and must only be called from a Proc;
// handler nodes receive each round's inbox as an OnRound argument. The
// returned slice is only valid until the node's following NextRound
// call: the network recycles inbox buffers, so protocols must copy any
// messages they keep across rounds.
func (c *Ctx) NextRound() []Message {
	a := c.adapter
	if a == nil {
		panic("sim: Ctx.NextRound called from a handler node (use the OnRound inbox instead)")
	}
	a.yield <- true
	inbox := <-a.resume
	if a.kill {
		panic(haltSignal{})
	}
	return inbox
}

// IDBits returns the size in bits of a node identifier in a network of
// n nodes, the unit the paper uses for communication work (ids have
// O(log n) bits).
func IDBits(n int) int {
	bits := 1
	for v := 1; v < n; v <<= 1 {
		bits++
	}
	return bits
}
