// Package sim implements the synchronous message-passing model of
// Section 1.1 of the paper: all nodes operate in synchronized rounds,
// each consisting of a receive step, a local-computation step, and a
// send step. Every node may send a distinct message to any node whose
// identifier it knows (the overlay-network assumption the sampling
// primitives exploit).
//
// Execution model: node programs are event-driven state machines — a
// Handler whose OnRound method is invoked inline, once per round, by
// the kernel, serially in spawn order. A handler node owns no
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
// sequence) order, so results are exactly reproducible.
//
// Layout: every live node occupies a dense int32 slot in a slice-backed
// node table, found from its id through a dense id-indexed table (a map
// only for ids far beyond the number ever spawned). Ctx.Send appends to
// the send log; the send step is a stable counting sort from the log
// into one flat inbox arena — decide and count per receiver slot,
// prefix-sum, scatter — so a node's inbox is a range of the arena,
// nothing is buffered per node, and the round loop performs no map
// operation. The per-round DoS-blocked set and the kill-request set are
// bitsets indexed by slot.
//
// DoS semantics follow the paper: a message sent from v to w at round i
// is received iff v is non-blocked in round i and w is non-blocked in
// rounds i and i+1. A blocked node still performs local computation but
// its sends are dropped and it receives nothing.
package sim

import (
	"fmt"
	"slices"

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
// entries to place for it, decided in the count pass. Its per-sender
// send sequence (injector identity, calendar tie-break) is not stored:
// a node's sends of one round are consecutive and end at nodeState.seq.
type sent struct {
	m      Message
	copies int32
}

// mailbag is the delivery state. The send log holds this round's sends
// in spawn order, as a list of segments; the arena holds the next
// round's inboxes, one contiguous range per receiver slot. Both are
// overwritten every round, so only what the new round no longer covers
// is cleared and a steady state allocates nothing; a burst's capacity is
// given back by the release rule (see trim). box is the async path's
// scratch inbox, rebuilt per node.
type mailbag struct {
	log     []sent   // the open segment: Ctx.sendRaw appends here
	segs    [][]sent // every segment; segs[:cur+1] hold this round's sends
	cur     int      // the open segment's index in segs
	stale   int      // the open segment's length in the round before
	widest  int      // most sends of one node this round, at most segLen/4
	reserve []sent   // an empty segment kept for the next round's seal
	arena   []Message
	box     []Message

	logTrim, arenaTrim trim
}

// segLen is the length at which the send log's open segment may be
// sealed. Ctx.sendRaw appends to the open segment and nothing else: any
// check per send cost the flood 5–11 %. Between two handlers compute
// seals the open segment once it holds segLen entries and has less room
// left than the widest sender of the round so far sent (capped at
// segLen/4), so a node's sends never straddle two segments, and opens
// the next: a spare one kept from an earlier round, or a new one with
// room for segLen/4 more than segLen (287 kB). So a burst costs one
// allocation per segment and no copy, where one log grown by append
// re-allocates and copies itself in 1.25× steps. Only a node that sends
// more than its segment has left regrows that one segment. Segment 0
// grows by append like a single log, so a round of up to segLen sends
// (most of them) sees exactly the single log's capacities.
const segLen = 4096

// The release rule (synchronous path): a send log or inbox arena whose
// end-of-round length stays under 1/trimShare of its capacity for
// trimRounds consecutive rounds is cut to twice the highest length of
// that window. A §4 epoch's sampling rounds send hundreds of times the
// messages of the rounds after them; without the rule both buffers would
// keep that burst's size for the life of the network. A sampler's
// heavy/light alternation never keeps a buffer quiet long enough to
// release it, and a steady flood never goes quiet at all. A released
// buffer regrows at the burst's size when the burst returns, without
// copying: the log by whole segments, the arena in place's one exact
// allocation. Lengths are a pure function of the run, so the rule is
// deterministic, and it moves no message. The calendar path keeps its
// log: there the per-node calendars hold most of a burst's capacity, so
// releasing the log alone would pay the regrowth of every stretched
// phase and give back a quarter of what the network retains.
const (
	trimRounds = 8
	trimShare  = 4
)

// trim is one buffer's release window: how many consecutive rounds it
// has been quiet and the highest length it held in them.
type trim struct {
	quiet, high int
}

// observe records a buffer's end-of-round length and capacity and
// returns the capacity to cut it to, or -1 to keep it.
func (t *trim) observe(length, capacity int) int {
	if trimShare*length >= capacity {
		*t = trim{}
		return -1
	}
	t.quiet++
	t.high = max(t.high, length)
	if t.quiet < trimRounds {
		return -1
	}
	c := 2 * t.high
	*t = trim{}
	return c
}

// release applies the release rule at the end of a synchronous round.
// The log is dead by then (the send step consumed it): it keeps the
// shortest prefix of its segments that holds the target and drops the
// rest, reallocating only a segment 0 larger than the target. The arena
// holds the next round's inboxes, whose live prefix is copied so every
// slot's inLo/inHi stays valid.
//
// Before the rule, a last segment the round sealed its way into and then
// wrote nothing to leaves the list: it waits one round as the reserve
// the next new segment is taken from, and goes if that round opens none.
// A seal cannot know that every later node stays silent. Kept, such a
// segment is held by a network that never needed it (a §4 epoch ends on
// such a round: 2,482 instead of 2,262 retained B/node at N₀ = 1024);
// dropped at once, a round of that shape every time would allocate one.
func (n *Network) release() {
	mb := &n.mail
	mb.reserve = nil
	if last := len(mb.segs) - 1; last > 0 && last == mb.cur && len(mb.segs[last]) == 0 {
		mb.reserve, mb.segs[last], mb.segs = mb.segs[last], nil, mb.segs[:last]
	}
	length, capacity := 0, 0
	for _, seg := range mb.segs {
		length, capacity = length+len(seg), capacity+cap(seg)
	}
	if c := mb.logTrim.observe(length, capacity); c >= 0 {
		keep := 0
		for have := 0; have < c; keep++ {
			have += cap(mb.segs[keep])
		}
		if keep == 1 && cap(mb.segs[0]) > c {
			mb.segs[0] = make([]sent, 0, c)
		}
		clear(mb.segs[keep:]) // no reference may outlive the drop in the spare capacity
		mb.segs = mb.segs[:keep]
	}
	if c := mb.arenaTrim.observe(len(mb.arena), cap(mb.arena)); c >= 0 {
		mb.arena = append(make([]Message, 0, c), mb.arena...)
	}
}

// open makes segment i the open one — a new segment (the reserve, if
// there is one) if there is none yet — and remembers its length from the
// round before for close.
func (mb *mailbag) open(i int) {
	if i == len(mb.segs) {
		var seg []sent // segment 0 grows by append
		if i > 0 {
			if seg, mb.reserve = mb.reserve, nil; seg == nil {
				seg = make([]sent, 0, segLen+segLen/4)
			}
		}
		mb.segs = append(mb.segs, seg)
	}
	mb.cur, mb.log, mb.stale = i, mb.segs[i][:0], len(mb.segs[i])
}

// close stores the open segment back into the list and releases the
// payloads of whatever this round left of its old length (a segment that
// grew past its old length was either extended in place or reallocated:
// nothing stale either way).
func (mb *mailbag) close() {
	if k := len(mb.log); k < mb.stale {
		clear(mb.log[k:mb.stale])
	}
	mb.segs[mb.cur] = mb.log
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
// Handlers run one at a time on the goroutine calling Step.
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
	// Shards is ignored: the kernel is serial. The field stays only
	// until bench/ stops setting it (ROADMAP item 1(c)/(e)).
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
// (sums over per-node deterministic state), so the stats are safe in
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
// buffer: this round's sends are [outLo, outHi) of one send-log segment
// and the pending inbox is mail.arena[inLo:inHi]. Slots are recycled
// through a free list when nodes depart.
type nodeState struct {
	id           NodeID
	h            Handler
	ctx          *Ctx
	seq          uint64
	bits         int64 // sent+received bits in the current round
	outLo, outHi int32
	inLo, inHi   int32
	live         bool // slot is occupied
	halted       bool // handler returned false or node was killed
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

	mail   mailbag // send log and inbox arena
	cursor []int32 // per-slot count, then write cursor, of the send step

	pendingBlocked Bitset // applies to the next Step (built by SetBlocked)
	pendingAny     bool
	blocked        Bitset // blocked set of the round in progress
	blockedAny     bool
	killReq        Bitset // Kill/Shutdown requests, indexed by slot

	work       []RoundWork
	recordWork bool

	// adapterLive counts coroutine-adapter goroutines currently alive,
	// for the teardown leak audit (AdapterGoroutines).
	adapterLive int

	// tracer, when non-nil, receives lifecycle events and drop-reason
	// accounting (see trace.go). The scratch slices collect the
	// per-node inbox-size and bits samples for RoundStats; they are
	// reused round after round so tracing adds no steady-state
	// allocations beyond its first round.
	tracer     Tracer
	sampleObs  RoundSampler
	traceInbox []int64
	traceBits  []int64

	// injector, when non-nil, is consulted for every otherwise-
	// deliverable message (see inject.go). faultObs caches whether the
	// tracer wants duplication events; dupScratch buffers them so they
	// fire after the send step's drops.
	injector   Injector
	faultObs   FaultObserver
	dupScratch []dupEvent

	// Discrete-event scheduler state (latency.go). async mirrors
	// lat.Enabled(); latSeed feeds the pure per-edge delay hash;
	// deferred counts messages (cumulatively) whose sampled delay
	// pushed arrival past the next round — a deterministic statistic.
	// roundDeferred is this round's count; latObs caches whether the
	// tracer wants it.
	lat           Latency
	async         bool
	latSeed       uint64
	deferred      int64
	roundDeferred int64
	latObs        LatencyObserver

	// Reliability-layer accounting (see the lane constants). roundRel
	// is this round's stats; relTotals is cumulative; relObs caches
	// whether the tracer wants the per-round stats. All zero unless
	// nodes actually use the control-lane sends, so a reliability-free
	// run is untouched.
	roundRel  ReliabilityRoundStats
	relTotals ReliabilityTotals
	relObs    ReliabilityObserver
}

// NewNetwork returns an empty network.
func NewNetwork(cfg Config) *Network {
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
		recordWork: true,
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
	return n
}

// Async reports whether the discrete-event scheduler is active.
func (n *Network) Async() bool { return n.async }

// DeferredMessages returns the cumulative number of messages whose
// sampled latency pushed their arrival beyond the next round — the
// scheduler's headline divergence-from-synchrony statistic. It is a
// pure function of the seed and the run, so it is safe in byte-compared
// artifacts. Always 0 in synchronous mode and in zero-spread
// configurations with delay <= 1 round.
func (n *Network) DeferredMessages() int64 { return n.deferred }

// ReliabilityStats returns the cumulative reliability-layer activity:
// retransmit copies and acks sent over the control lane, delivery
// failures and stale deliveries reported by endpoints. Deterministic;
// all zero when no node uses the reliable layer.
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
func (n *Network) AdapterGoroutines() int { return n.adapterLive }

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
// mutated while nodes compute. Dead ids are never reused, so a miss
// stays correct.
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

	n.roundDeferred = 0
	n.roundRel = ReliabilityRoundStats{}

	// Compute step: hand each node the inbox the previous send step
	// placed (empty if blocked in this round — the "receiver non-blocked
	// in round i+1" half of the rule; the other half was enforced at send
	// time) and run its handler inline. Send step: sort the log into the
	// arena (or, in async mode, the calendars).
	n.compute()
	messages, totalBits, maxBits, anyHalted := n.send()
	for _, d := range n.dupScratch {
		n.faultObs.MessageDuplicated(n.round, d.from, d.to, d.bits, d.copies)
	}
	n.dupScratch = n.dupScratch[:0]
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

// compute runs the merged receive + compute step in spawn order: it
// restarts the send log, hands each node its pending inbox (or, for
// blocked receivers, drops it), and invokes the node's handler inline —
// unless a kill was requested, in which case the node halts without
// computing. Between two handlers it seals a nearly full log segment
// (see segLen).
func (n *Network) compute() {
	tr := n.tracer
	slots := n.slots
	blocked, anyB := n.blocked, n.blockedAny
	mb := &n.mail
	mb.open(0)
	mb.widest = 0
	for _, s := range n.order {
		st := &slots[s]
		var box []Message
		if n.async {
			// Event-scheduler receive step: deliver (or, when blocked,
			// drop) the calendar entries due this round.
			box = n.asyncInbox(st, s)
		} else if box = mb.arena[st.inLo:st.inHi]; anyB && blocked.Test(s) {
			// Drop the pending inbox without delivering it. Control-lane
			// messages are lost the same way but stay out of the exact
			// drop ledger (the reliable layer accounts them itself).
			if tr != nil {
				for i := range box {
					if box[i].lane == laneProtocol {
						tr.MessageDropped(n.round, DropBlockedReceiverDeliveryRound, box[i].From, st.id, box[i].Bits)
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
			n.traceInbox = append(n.traceInbox, nprot)
		}
		// Compute: a killed node halts without running; otherwise the
		// handler executes inline and its sends append to the log.
		if k := len(mb.log); k >= segLen && k > cap(mb.log)-mb.widest {
			mb.close()
			mb.open(mb.cur + 1)
		}
		st.outLo = int32(len(mb.log))
		if n.killReq.Test(s) {
			st.halted = true
		} else if !st.h.OnRound(st.ctx, box) {
			st.halted = true
		}
		st.outHi = int32(len(mb.log))
		if k := int(st.outHi - st.outLo); k > mb.widest {
			mb.widest = min(k, segLen/4)
		}
		// Harvest the node's reliability reports (delivery failures,
		// stale discards, ack delays) into the round accumulator. The
		// dirty flag keeps this to one branch per node for the common
		// case of no reliable layer.
		if ctx := st.ctx; ctx.rel.dirty {
			rel := &n.roundRel
			rel.Failures += int(ctx.rel.failures)
			rel.Stale += int(ctx.rel.stale)
			for b := range ctx.rel.ackDelay {
				rel.AckDelay[b] += ctx.rel.ackDelay[b]
			}
			ctx.rel = relNodeStats{}
		}
	}
	// Release the payloads of whatever this round's log and the scratch
	// inbox no longer cover: the open segment's old tail, and all of the
	// spare segments this round did not reach. Between rounds only the
	// list holds a segment, so the release rule's drop is a real one.
	mb.close()
	mb.log = nil
	for i := mb.cur + 1; i < len(mb.segs); i++ {
		clear(mb.segs[i])
		mb.segs[i] = mb.segs[i][:0]
	}
	clear(mb.box[:cap(mb.box)])
}

// asyncInbox runs the event-scheduler receive step for one slot: it
// extracts the calendar entries whose delivery round has arrived, sorts
// them into the total order (arrival tick, send round, sender position,
// send sequence — see latency.go), and materializes them in the scratch
// inbox — or, for a blocked receiver, drops them with
// DropBlockedReceiverDeliveryRound, exactly as the synchronous path
// drops a blocked node's pending inbox.
func (n *Network) asyncInbox(st *nodeState, s int32) []Message {
	mb := &n.mail
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
					n.tracer.MessageDropped(n.round, DropBlockedReceiverDeliveryRound, due[i].m.From, st.id, due[i].m.Bits)
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

// send runs the send step: a stable counting sort from the send log
// into the inbox arena. It scans every sender's log range in spawn
// order and, per message, decides the copy count — the §1.1 blocking
// rule's send-round half (sender, then receiver; the i+1 half is
// checked at delivery), then the injector — records and counts it (or,
// in async mode, stamps the arrival tick — a pure function of seed,
// round and edge — and parks the copies in the receiver's calendar),
// and performs the round's accounting: message and bit totals, drop and
// duplication events, deferrals, departures. place then turns the
// counts into inboxes; the log's segments in order are in (sender spawn
// order, send sequence) order and the sort is stable, so every inbox is
// in canonical order.
func (n *Network) send() (messages int, totalBits, maxBits int64, anyHalted bool) {
	tr := n.tracer
	inj := n.injector
	slots := n.slots
	segs := n.mail.segs
	log, hi := segs[0], int32(0)
	blocked, anyB := n.blocked, n.blockedAny
	async, round := n.async, n.round
	rel := &n.roundRel
	cnt := n.cursor
	clear(cnt)
	for p, s := range n.order {
		st := &slots[s]
		// A node's range starting below its predecessor's end is the
		// first of the next segment: a sealed segment is never empty.
		if st.outLo < hi {
			segs = segs[1:]
			log = segs[0]
		}
		hi = st.outHi
		out := log[st.outLo:st.outHi]
		// A blocked sender's sends are all discarded, uncounted: they
		// enter neither Messages nor the control-lane totals.
		sblocked := anyB && blocked.Test(s)
		nctl := 0
		seq := st.seq - uint64(len(out))
		for i := range out {
			e := &out[i]
			t := e.m.slot
			seq++
			copies, reason := 1, noDrop
			switch {
			case sblocked:
				copies, reason = 0, DropBlockedSender
			case t < 0:
				copies, reason = 0, DropDeadReceiver
			case anyB && blocked.Test(t):
				copies, reason = 0, DropBlockedReceiverSendRound
			case inj != nil:
				if copies = max(inj.Deliveries(round, e.m.From, e.m.To, seq), 0); copies == 0 {
					reason = DropFaultInjected
				}
			}
			if !async {
				e.copies = int32(copies)
				if copies > 0 {
					cnt[t] += int32(copies)
				}
			} else if copies > 0 {
				at := uint64(round)*tickScale + n.lat.delayTicks(n.latSeed, round, uint64(e.m.From), uint64(e.m.To))
				rcv := &slots[t]
				pm := pendingMsg{m: e.m, tick: at, seq: seq, srnd: int32(round), pos: int32(p)}
				for c := 0; c < copies; c++ {
					rcv.future = append(rcv.future, pm)
				}
				if at > uint64(round+1)*tickScale && e.m.lane == laneProtocol {
					n.roundDeferred++
				}
			}
			// Control-lane messages face the same blocking and faults but
			// never enter the drop/dup ledger.
			if e.m.lane == laneProtocol {
				if reason != noDrop {
					if tr != nil {
						tr.MessageDropped(round, reason, e.m.From, e.m.To, e.m.Bits)
					}
				} else if copies > 1 && n.faultObs != nil {
					n.dupScratch = append(n.dupScratch, dupEvent{from: e.m.From, to: e.m.To, bits: e.m.Bits, copies: copies})
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
		if !sblocked {
			messages += len(out) - nctl
		}
		rel.CtlMessages += nctl
		totalBits += st.bits
		if st.bits > maxBits {
			maxBits = st.bits
		}
		if tr != nil {
			n.traceBits = append(n.traceBits, st.bits)
		}
		if st.halted {
			anyHalted = true
		}
	}
	if !async {
		n.place()
	}
	return messages, totalBits, maxBits, anyHalted
}

// place finishes the counting sort: a prefix sum over the counts lays
// the inbox ranges out in the arena, then one lean pass over the log's
// segments scatters the decided copies. The compute step has finished
// reading the arena, so it is overwritten in place, and only the tail
// the new round no longer covers needs its payloads released.
func (n *Network) place() {
	mb := &n.mail
	cur := n.cursor
	var off int32
	for s := range cur {
		st := &n.slots[s]
		st.inLo = off
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
	for _, log := range mb.segs[:mb.cur+1] {
		for i := range log {
			e := &log[i]
			t := e.m.slot
			for c := e.copies; c > 0; c-- {
				arena[cur[t]] = e.m
				cur[t]++
			}
		}
	}
}

// reap removes departed nodes from the spawn order and recycles their
// slots. It runs at the end of a round, in spawn order, so slot reuse
// is deterministic.
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
// point.
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
	n.mail = mailbag{} // the log and arena go, with every payload they reference
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
	mb := &n.mail
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
