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
// node table, found from its id through a dense id-indexed table (a map
// only for ids far beyond the number ever spawned). Ctx.Send appends to
// its worker's send log; the send step is a stable counting sort from
// the logs into one flat inbox arena per worker — decide and count per
// receiver slot, prefix-sum, scatter — so a node's inbox is a range of
// the arena, nothing is buffered per node, and the round loop performs
// no map operation. The per-round DoS-blocked set and the kill-request
// set are bitsets indexed by slot.
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

	slot int32 // receiver's dense slot, resolved at Send time; -1 = no such node
	lane uint8 // laneProtocol, or a control lane (reliability traffic)
}

// sent is one send-log entry: the message plus the number of inbox
// entries to place for it, decided by the receiver's owner in the count
// pass. Its per-sender send sequence (injector identity, calendar
// tie-break) is not stored: a node's sends of one round are consecutive
// and end at nodeState.seq.
type sent struct {
	m      Message
	copies int32
}

// mailbag is one worker's share of the delivery state (a serial network
// has exactly one). The log holds this round's sends of the nodes the
// worker computed, in spawn order; the arena holds the inboxes of the
// receiver slots the worker owns, one contiguous range per slot. Both
// are overwritten every round, so only the tail beyond the new length
// is cleared and a steady state allocates nothing; a burst's capacity is
// given back by the release rule (see trim). box is the async path's
// scratch inbox, rebuilt per node.
type mailbag struct {
	log   []sent
	arena []Message
	box   []Message

	logTrim, arenaTrim trim
}

// The release rule (synchronous path): a send log or inbox arena whose
// end-of-round length stays under 1/trimShare of its capacity for
// trimRounds consecutive rounds is reallocated to twice the highest
// length of that window. A §4 epoch's sampling rounds send hundreds of
// times the messages of the rounds after them; without the rule both
// buffers would keep that burst's size for the life of the network. A
// sampler's heavy/light alternation never keeps a buffer quiet long
// enough to release it, and a steady flood never goes quiet at all.
// A released buffer that regrows to more than trimShare times its
// released size is facing its burst again: at the end of that round it
// gets back the largest capacity it gave up, in one allocation instead
// of append's many 1.25× steps (the hot path stays a plain append).
// Lengths are a pure function of the run, so the rule is deterministic,
// and it moves no message. The calendar path keeps its log: there the
// per-node calendars hold most of a burst's capacity, so releasing the
// log alone would pay the regrowth of every stretched phase and give
// back a quarter of what the network retains.
const (
	trimRounds = 8
	trimShare  = 4
)

// trim is one buffer's release window — how many consecutive rounds it
// has been quiet and the highest length it held in them — and, once it
// has been released, the largest capacity it gave up (peak) and the
// capacity it was released to (cut).
type trim struct {
	quiet, high int
	peak, cut   int
}

// observe records a buffer's end-of-round length and capacity and
// returns the capacity to reallocate it to, or -1 to keep it.
func (t *trim) observe(length, capacity int) int {
	if t.peak > capacity && capacity > trimShare*t.cut {
		c := t.peak
		*t = trim{}
		return c
	}
	if trimShare*length >= capacity {
		t.quiet, t.high = 0, 0
		return -1
	}
	t.quiet++
	t.high = max(t.high, length)
	if t.quiet < trimRounds {
		return -1
	}
	c := 2 * t.high
	if c > 0 {
		*t = trim{peak: max(t.peak, capacity), cut: c}
	} else {
		*t = trim{} // released from silence: the burst is forgotten
	}
	return c
}

// release applies the release rule to every worker's buffers, serially
// at the end of a synchronous round: the log is dead by then (the send
// step consumed it) and the arena holds only the next round's inboxes,
// whose live prefix is copied so every slot's inW/inLo/inHi stays valid.
// A restored capacity exceeds the length, so the same copy serves it.
func (n *Network) release() {
	for w := range n.mail {
		mb := &n.mail[w]
		if c := mb.logTrim.observe(len(mb.log), cap(mb.log)); c >= 0 {
			mb.log = make([]sent, 0, c)
		}
		if c := mb.arenaTrim.observe(len(mb.arena), cap(mb.arena)); c >= 0 {
			mb.arena = append(make([]Message, 0, c), mb.arena...)
		}
	}
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
	// SizeHint, when positive, presizes the node table, the dense id
	// table (ids up to twice the hint stay off the overflow map whatever
	// the spawn order) and the slot-indexed bitsets. Purely a capacity
	// hint: it never changes results, only avoids the incremental growth
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

// maxShards bounds the worker pool; the delivery step scans every send
// log once per shard, so very high counts cost more than they win.
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
// b counts acks whose send→ack delay was in [2^b, 2^(b+1)) rounds
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

// nodeState is one dense slot of the node table. It owns no message
// buffer: this round's sends are mail[w].log[outLo:outHi] and the
// pending inbox is mail[inW].arena[inLo:inHi]. Slots are recycled
// through a free list when nodes depart.
type nodeState struct {
	id           NodeID
	h            Handler
	ctx          *Ctx
	seq          uint64
	bits         int64 // sent+received bits in the current round
	outLo, outHi int32
	inLo, inHi   int32
	w, inW       uint8 // workers that computed the node / filled its inbox (slot chunks move with Spawn, so recorded)
	live         bool  // slot is occupied
	halted       bool  // handler returned false or node was killed
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
	slots []nodeState // dense node table, indexed by slot
	free  []int32     // recycled slots (LIFO)
	order []int32     // live slots in spawn order; determines scheduling

	// id → slot (see slotOf). dense[id] is slot+1 for every id below
	// 2·max(spawned, SizeHint)+denseSlack at its spawn — all of v+1 and
	// any monotone counter, however long the run — and sparse holds the
	// rest. The bound follows ids ever spawned, not live nodes, so the
	// table neither decays onto the map nor grows past O(spawned).
	dense   []int32
	sparse  map[NodeID]int32
	spawned int
	hint    int

	mail   []mailbag // per-worker send logs and inbox arenas
	cursor []int32   // per-slot count, then write cursor, of the send step

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
		hint:       hint,
		mail:       make([]mailbag, shards),
		recordWork: true,
		shards:     shards,
		lat:        cfg.Latency,
		async:      cfg.Latency.Enabled(),
		latSeed:    cfg.Seed,
	}
	if hint > 0 {
		n.slots = make([]nodeState, 0, hint)
		n.order = make([]int32, 0, hint)
		n.dense = make([]int32, 0, hint+1)
		n.cursor = make([]int32, 0, hint)
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
func (n *Network) Exists(id NodeID) bool { return n.slotOf(id) >= 0 }

// denseSlack is the headroom of the dense id table beyond twice the
// number of ids ever spawned.
const denseSlack = 1024

// slotOf maps an id to its dense slot, or -1 if no such node is alive.
// Nodes call it from Send during the compute step; the index is never
// mutated while nodes compute, so the concurrent reads are safe. Dead
// ids are never reused, so a miss stays correct.
func (n *Network) slotOf(id NodeID) int32 {
	if id < NodeID(len(n.dense)) {
		if s := n.dense[id]; s != 0 {
			return s - 1
		}
	}
	if len(n.sparse) != 0 {
		if s, ok := n.sparse[id]; ok {
			return s
		}
	}
	return -1
}

// setSlot records id → s at Spawn, or forgets the id with s < 0 when the
// node departs.
func (n *Network) setSlot(id NodeID, s int32) {
	switch {
	case id < NodeID(len(n.dense)) && (s >= 0 || n.dense[id] != 0):
		n.dense[id] = s + 1
	case s < 0:
		delete(n.sparse, id)
	case id < NodeID(2*max(n.spawned, n.hint)+denseSlack):
		n.dense = append(n.dense, make([]int32, int(id)+1-len(n.dense))...)
		n.dense[id] = s + 1
	default:
		if n.sparse == nil {
			n.sparse = make(map[NodeID]int32)
		}
		n.sparse[id] = s
	}
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
	n.cursor = append(n.cursor, 0)
	return s
}

// freeSlot returns a departed node's slot to the free list: the handler
// and Ctx are dropped, the inbox range is emptied so the next occupant
// starts with none (mail placed for the departed node this round is
// absorbed; its payloads go when the arena is next overwritten), and all
// slot-indexed bits are cleared. A coroutine adapter whose goroutine is
// still parked (the node was killed rather than returning) is unwound
// here.
func (n *Network) freeSlot(s int32) {
	st := &n.slots[s]
	if a, ok := st.h.(*procAdapter); ok {
		a.stop()
	}
	// In-flight calendar entries to a departed node are absorbed the same
	// way; clearing also keeps them from the slot's next occupant.
	clear(st.future)
	*st = nodeState{future: st.future[:0]}
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
	if n.slotOf(id) >= 0 {
		panic(fmt.Sprintf("sim: duplicate node id %d", id))
	}
	s := n.allocSlot()
	st := &n.slots[s]
	st.id = id
	st.live = true
	st.h = h
	st.ctx = &Ctx{net: n, slot: s, rng: *n.root.Split(uint64(id))}
	n.setSlot(id, s)
	n.spawned++
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
	if s := n.slotOf(id); s >= 0 {
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
		if s := n.slotOf(id); s >= 0 {
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
		// Compute step: hand each node the inbox the previous send step
		// placed (empty if blocked in this round — the "receiver
		// non-blocked in round i+1" half of the rule; the other half was
		// enforced at send time) and run its handler inline. Send step:
		// sort the log into the arena (or, in async mode, the calendars).
		n.computeRange(0, len(n.order), 0, nil)
		messages, totalBits, maxBits, anyHalted = n.sendRange(0, 0, len(n.order), 0, int32(len(n.slots)), nil)
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
	if !n.async {
		n.release()
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

// computeRange runs the merged receive + compute step of worker w for
// spawn-order positions [plo, phi): it restarts the worker's send log,
// hands each node its pending inbox (or, for blocked receivers, drops
// it), and invokes the node's handler inline — unless a kill was
// requested, in which case the node halts without computing.
// acc != nil buffers tracer events and samples per shard instead of
// calling the tracer directly (workers must not touch it concurrently);
// they are replayed in canonical order afterwards.
func (n *Network) computeRange(plo, phi, w int, acc *shardAcc) {
	tr := n.tracer
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	mb := &n.mail[w]
	stale := len(mb.log)
	mb.log = mb.log[:0]
	for p := plo; p < phi; p++ {
		s := n.order[p]
		st := &slots[s]
		var box []Message
		if n.async {
			// Event-scheduler receive step: deliver (or, when blocked,
			// drop) the calendar entries due this round.
			box = n.asyncInbox(st, s, mb, acc)
		} else if box = n.mail[st.inW].arena[st.inLo:st.inHi]; anyB && blocked.Test(s) {
			// Drop the pending inbox without delivering it. Control-lane
			// messages are lost the same way but stay out of the exact
			// drop ledger (the reliable layer accounts them itself).
			if tr != nil {
				for i := range box {
					if box[i].lane == laneProtocol {
						n.traceDrop(acc, DropBlockedReceiverDeliveryRound, box[i].From, st.id, box[i].Bits)
					}
				}
			}
			box = nil
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
		// handler executes inline on this worker. Its sends go to this
		// worker's log and its reads of shared structures (the id index,
		// other slots' identity fields) are of state that never mutates
		// during a round, so inline execution is safe and deterministic
		// under any shard partition.
		st.w, st.outLo = uint8(w), int32(len(mb.log))
		if n.killReq.Test(s) {
			st.halted = true
		} else if !st.h.OnRound(st.ctx, box) {
			st.halted = true
		}
		st.outHi = int32(len(mb.log))
		// Harvest the node's reliability reports (delivery failures,
		// stale discards, ack delays) into the round accumulator. The
		// dirty flag keeps this to one branch per node for the common
		// case of no reliable layer.
		if ctx := st.ctx; ctx.rel.dirty {
			rel := &n.roundRel
			if acc != nil {
				rel = &acc.rel
			}
			rel.Failures += int(ctx.rel.failures)
			rel.Stale += int(ctx.rel.stale)
			for b := range ctx.rel.ackDelay {
				rel.AckDelay[b] += ctx.rel.ackDelay[b]
			}
			ctx.rel = relNodeStats{}
		}
	}
	// Release the payloads of whatever the shorter log and the scratch
	// inbox no longer cover (a log that grew past its old length was
	// either extended in place or reallocated: nothing stale either way).
	if k := len(mb.log); k < stale {
		clear(mb.log[k:stale])
	}
	clear(mb.box[:cap(mb.box)])
}

// asyncInbox runs the event-scheduler receive step for one slot: it
// extracts the calendar entries whose delivery round has arrived, sorts
// them into the total order (arrival tick, send round, sender position,
// send sequence — see latency.go), and materializes them in the
// worker's scratch inbox — or, for a blocked receiver, drops them with
// DropBlockedReceiverDeliveryRound, exactly as the synchronous path
// drops a blocked node's pending inbox. The sort happens per receiver
// over its own calendar, so any shard partition of the receivers
// produces the same inboxes.
func (n *Network) asyncInbox(st *nodeState, s int32, mb *mailbag, acc *shardAcc) []Message {
	fut := st.future
	now := uint64(n.round) * tickScale // delivery round = ceil(tick/tickScale)
	d := 0
	for i := range fut {
		if fut[i].tick <= now {
			fut[d], fut[i] = fut[i], fut[d]
			d++
		}
	}
	if d == 0 {
		return nil
	}
	due := fut[:d]
	slices.SortFunc(due, pendingLess)
	box := mb.box[:0]
	if n.blockedAny && n.blocked.Test(s) {
		if n.tracer != nil {
			for i := range due {
				if due[i].m.lane == laneProtocol { // control lane stays out of the drop ledger
					n.traceDrop(acc, DropBlockedReceiverDeliveryRound, due[i].m.From, st.id, due[i].m.Bits)
				}
			}
		}
	} else {
		for i := range due {
			box = append(box, due[i].m)
		}
		mb.box = box
	}
	// Retire the due entries: shift the keepers down, release payload
	// references from the vacated tail.
	k := copy(fut, fut[d:])
	clear(fut[k:])
	st.future = fut[:k]
	return box
}

// noDrop marks a message the send step decided to deliver.
const noDrop = NumDropReasons

// sendRange runs the send step of worker w: a stable counting sort from
// the send logs into the worker's inbox arena. It scans every sender's
// log range in spawn order and, per message, decides the copy count —
// the §1.1 blocking rule's send-round half (sender, then receiver; the
// i+1 half is checked at delivery), then the injector — and (a) for
// receiver slots in [dlo, dhi) records and counts it (or, in async mode,
// stamps the arrival tick — a pure function of seed, round and edge —
// and parks the copies in the receiver's calendar), and (b) for sender
// positions in [plo, phi) performs the round's accounting: message and
// bit totals, drop and duplication events, deferrals, departures. place
// then turns the counts into inboxes; logs are in (sender spawn order,
// send sequence) order and the sort is stable, so every inbox is in
// canonical order. In serial mode both ranges cover everything; under
// sharding each worker owns a contiguous receiver-slot range and a
// contiguous sender-position range, so the union of the shards
// reproduces the serial round exactly. The injector is pure, so the
// owner of a message's receiver and the accounting worker of its sender
// reach the same decision when they differ.
func (n *Network) sendRange(w, plo, phi int, dlo, dhi int32, acc *shardAcc) (messages int, totalBits, maxBits int64, anyHalted bool) {
	tr := n.tracer
	inj := n.injector
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	async, round := n.async, n.round
	cnt := n.cursor
	clear(cnt[dlo:dhi])
	var deferred int64
	var rel ReliabilityRoundStats
	for p, s := range n.order {
		st := &slots[s]
		mine := p >= plo && p < phi
		out := n.mail[st.w].log[st.outLo:st.outHi]
		// A blocked sender's sends are all discarded, uncounted: they
		// enter neither Messages nor the control-lane totals.
		sblocked := anyB && blocked.Test(s)
		nctl := 0
		seq := st.seq - uint64(len(out))
		for i := range out {
			e := &out[i]
			t := e.m.slot
			seq++
			owned := t >= dlo && t < dhi
			copies, reason := 1, noDrop
			switch {
			case sblocked:
				copies, reason = 0, DropBlockedSender
			case t < 0:
				copies, reason = 0, DropDeadReceiver
			case anyB && blocked.Test(t):
				copies, reason = 0, DropBlockedReceiverSendRound
			case inj != nil && (owned || mine && (tr != nil || async)):
				if copies = max(inj.Deliveries(round, e.m.From, e.m.To, seq), 0); copies == 0 {
					reason = DropFaultInjected
				}
			}
			if !async {
				if owned {
					e.copies = int32(copies)
					cnt[t] += int32(copies)
				}
			} else if copies > 0 && (owned || mine) {
				at := uint64(round)*tickScale + n.lat.delayTicks(n.latSeed, round, uint64(e.m.From), uint64(e.m.To))
				if owned {
					rcv := &slots[t]
					pm := pendingMsg{m: e.m, tick: at, seq: seq, srnd: int32(round), pos: int32(p)}
					for c := 0; c < copies; c++ {
						rcv.future = append(rcv.future, pm)
					}
				}
				if mine && at > uint64(round+1)*tickScale && e.m.lane == laneProtocol {
					deferred++
				}
			}
			if !mine {
				continue
			}
			// Control-lane messages face the same blocking and faults but
			// never enter the drop/dup ledger.
			if e.m.lane == laneProtocol {
				if reason != noDrop {
					if tr != nil {
						n.traceDrop(acc, reason, e.m.From, e.m.To, e.m.Bits)
					}
				} else if copies > 1 && n.faultObs != nil {
					n.traceDup(acc, &e.m, copies)
				}
				if !sblocked {
					st.bits += int64(e.m.Bits)
				}
			} else if !sblocked {
				nctl++
				rel.CtlBits += int64(e.m.Bits)
				if e.m.lane == laneAck {
					rel.Acks++
				} else {
					rel.Retransmits++
				}
			}
		}
		if mine {
			if !sblocked {
				messages += len(out) - nctl
			}
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
	if !async {
		n.place(w, dlo, dhi)
	}
	if acc != nil {
		acc.rel.add(&rel)
		acc.deferred = deferred
	} else {
		n.roundRel.add(&rel)
		n.roundDeferred += deferred
	}
	return messages, totalBits, maxBits, anyHalted
}

// place finishes worker w's counting sort for receiver slots [dlo, dhi):
// a prefix sum over the counts lays the inbox ranges out in the worker's
// arena, then one lean pass over every log, in worker order (which is
// spawn order), scatters the decided copies. The compute step has
// finished reading the arena, so it is overwritten in place, and only
// the tail the new round no longer covers needs its payloads released.
func (n *Network) place(w int, dlo, dhi int32) {
	mb := &n.mail[w]
	cur := n.cursor
	var off int32
	for s := dlo; s < dhi; s++ {
		st := &n.slots[s]
		st.inW, st.inLo = uint8(w), off
		cur[s], off = off, off+cur[s]
		st.inHi = off
	}
	arena := mb.arena
	if total := int(off); total > cap(arena) {
		arena = make([]Message, total, total+total/8)
	} else {
		clear(arena[min(total, len(arena)):])
		arena = arena[:total]
	}
	mb.arena = arena
	for v := range n.mail {
		log := n.mail[v].log
		for i := range log {
			e := &log[i]
			if t := e.m.slot; t >= dlo && t < dhi {
				for c := e.copies; c > 0; c-- {
					arena[cur[t]] = e.m
					cur[t]++
				}
			}
		}
	}
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
			n.setSlot(st.id, -1)
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
		n.setSlot(n.slots[s].id, -1)
		n.freeSlot(s)
	}
	n.order = n.order[:0]
	clear(n.mail) // logs and arenas go, with every payload they reference
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
	n := c.net
	st := &n.slots[c.slot]
	st.seq++
	mb := &n.mail[st.w]
	mb.log = append(mb.log, sent{m: Message{From: st.id, To: to, Payload: payload, Bits: bits, slot: n.slotOf(to), lane: lane}})
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
