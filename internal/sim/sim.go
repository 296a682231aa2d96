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
// operation.
//
// A node departs only by its handler returning false. Section 1.1's DoS
// rule (a message from v in round i reaches w iff v is non-blocked in
// round i and w is non-blocked in rounds i and i+1) is not the kernel's:
// the §5/§6 stacks apply it in internal/committee, which every DoS
// measurement runs on.
package sim

import (
	"cmp"
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

	// slot is the receiver's dense slot, resolved at Send time (-1 = no
	// such node); place sorts a spread inbox by arrival tick kept here.
	slot int32
	lane uint8 // laneProtocol, or a control lane (reliability traffic)
}

// sent is one send-log or calendar entry: the message, the number of
// inbox entries to place for it, decided in the count pass, and under a
// latency model its arrival tick in the delivery round, in (0, tickScale].
// Its per-sender send sequence (the injector's identity) is not stored:
// a node's sends of one round are consecutive and end at nodeState.seq.
type sent struct {
	m      Message
	copies int32
	tick   uint32
}

// mailbag is the delivery state. The send log holds this round's sends
// in spawn order, as a list of segments; the arena holds the next
// round's inboxes, one contiguous range per receiver slot. Both are
// overwritten every round, so only what the new round no longer covers
// is cleared and a steady state allocates nothing; a burst's capacity is
// given back by the idle rule (see Step). Under a latency model cal is
// the calendar: cal[k] holds the copies due k+1 rounds after the round
// in progress, in send order; place delivers cal[0] with the log and
// recycles it as the last bucket.
type mailbag struct {
	log    []sent   // the open segment: Ctx.sendRaw appends here
	segs   [][]sent // every segment; segs[:cur+1] hold this round's sends
	cur    int      // the open segment's index in segs
	stale  int      // the open segment's length in the round before
	widest int      // most sends of one node this round, at most segLen/4
	arena  []Message
	cal    []bucket
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

// open makes segment i the open one — a new segment if there is none
// yet — and remembers its length from the round before for close.
func (mb *mailbag) open(i int) {
	if i == len(mb.segs) {
		var seg []sent // segment 0 grows by append
		if i > 0 {
			seg = make([]sent, 0, segLen+segLen/4)
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
// ride the same delivery machinery — fault injection and the event
// scheduler both apply — but are accounted separately
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
	// SizeHint, when positive, presizes the node table and the dense id
	// table (ids up to twice the hint stay off the overflow map whatever
	// the spawn order). Purely a capacity
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
	Messages    int   // protocol messages sent
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

// nodeState is one dense slot of the node table: what outlives a round.
// It owns no message buffer; where the slot's sends and pending inbox lie
// is its roundSlot. Slots are recycled through a free list when nodes
// depart.
type nodeState struct {
	id     NodeID
	h      Handler
	ctx    *Ctx
	seq    uint64
	live   bool // slot is occupied
	halted bool // handler returned false
}

// roundSlot is a slot's part of the round scratch, which lives from one
// round's compute to the next round's place: this round's sends are
// [outLo, outHi) of one send-log segment and the pending inbox is
// mail.arena[inLo:inHi]. The idle rule drops the scratch with the arena.
type roundSlot struct {
	bits         int64 // sent+received bits in the current round
	outLo, outHi int32
	inLo, inHi   int32
}

// Network coordinates the synchronous rounds. It is not safe for
// concurrent use; Spawn, Step and the accessors must all be
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

	mail mailbag // send log and inbox arena
	// The round scratch, indexed by slot: nil, or as long as slots at
	// the start of compute (see fitScratch). cursor is the send step's
	// per-slot count, then write cursor.
	scratch []roundSlot
	cursor  []int32

	work []RoundWork

	// adapterLive counts coroutine-adapter goroutines currently alive,
	// for the teardown leak audit (AdapterGoroutines).
	adapterLive int

	// tracer, when non-nil, receives each round's stats (see
	// trace.go). stats is the round being counted; its Inbox and Bits
	// samples are taken only with a tracer attached and reuse their
	// buffers round after round, so tracing adds no steady-state
	// allocations beyond its first round.
	tracer Tracer
	stats  RoundStats

	// injector, when non-nil, is consulted for every otherwise-
	// deliverable message (see inject.go).
	injector Injector

	// Discrete-event scheduler state (latency.go). async mirrors
	// lat.Enabled(); latSeed feeds the pure per-edge delay hash;
	// deferred counts messages (cumulatively) whose sampled delay
	// pushed arrival past the next round — a deterministic statistic.
	lat      Latency
	async    bool
	latSeed  uint64
	deferred int64

	// Cumulative reliability-layer accounting (see the lane constants):
	// all zero unless nodes actually use the control-lane sends, so a
	// reliability-free run is untouched.
	relTotals ReliabilityTotals
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
		root:    rng.New(cfg.Seed),
		hint:    hint,
		lat:     cfg.Latency,
		async:   cfg.Latency.Enabled(),
		latSeed: cfg.Seed,
	}
	if hint > 0 {
		n.slots = make([]nodeState, 0, hint)
		n.order = make([]int32, 0, hint)
		n.dense = make([]int32, 0, hint+1)
	}
	return n
}

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

// ResetWork truncates the per-round work log, keeping its capacity.
// Long-horizon drivers call it between epochs to keep memory bounded
// while still measuring each epoch.
func (n *Network) ResetWork() { n.work = n.work[:0] }

// Round returns the number of completed rounds.
func (n *Network) Round() int { return n.round }

// AdapterGoroutines returns the number of coroutine-adapter goroutines
// currently alive. It is 0 for a network of pure handler nodes, and
// must return to 0 after Shutdown (the teardown leak audit asserts
// both).
func (n *Network) AdapterGoroutines() int { return n.adapterLive }

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

// allocSlot pops a recycled slot or extends the node table.
func (n *Network) allocSlot() int32 {
	if k := len(n.free); k > 0 {
		s := n.free[k-1]
		n.free = n.free[:k-1]
		return s
	}
	s := int32(len(n.slots))
	n.slots = append(n.slots, nodeState{})
	return s
}

// fitScratch extends the round scratch over slots spawned since it was
// last fitted, keeping the inbox ranges already placed, or makes it when
// it is nil. Every slot it adds starts with an empty inbox.
func (n *Network) fitScratch() []roundSlot {
	if k := len(n.slots) - len(n.scratch); k > 0 {
		n.scratch = append(n.scratch, make([]roundSlot, k)...)
		n.cursor = append(n.cursor, make([]int32, k)...)
	}
	return n.scratch
}

// freeSlot returns a departed node's slot to the free list: the handler
// and Ctx are dropped, the inbox range is emptied so the next occupant
// starts with none (mail placed for the departed node this round is
// absorbed; its payloads go when the arena is next overwritten; mail
// still in the calendar is absorbed by place). A coroutine adapter whose
// goroutine is still parked (Shutdown, not a return, ends the node) is
// unwound here.
func (n *Network) freeSlot(s int32) {
	st := &n.slots[s]
	if a, ok := st.h.(*procAdapter); ok {
		a.stop()
	}
	*st = nodeState{}
	if int(s) < len(n.scratch) {
		n.scratch[s] = roundSlot{}
	}
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
	st.ctx = &Ctx{net: n, slot: s, rng: n.root.Split(uint64(id))}
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

// Step executes one synchronous round: deliver + compute, then collect
// sends.
func (n *Network) Step() {
	n.round++
	rs := &n.stats
	*rs = RoundStats{Round: n.round, Alive: len(n.order), Inbox: rs.Inbox[:0], Bits: rs.Bits[:0]}
	if n.tracer != nil {
		n.tracer.RoundStart(n.round, rs.Alive)
	}

	// Compute step: hand each node the inbox the previous send step
	// placed and run its handler inline. Send step: sort the log (and the
	// calendar bucket due next round) into the arena.
	anyHalted := n.compute()
	messages, totalBits, maxBits := n.send()
	rel := &rs.Reliability
	rs.Work = RoundWork{
		Round:       n.round,
		Messages:    messages,
		TotalBits:   totalBits,
		MaxNodeBits: maxBits,
		CtlMessages: rel.CtlMessages,
		CtlBits:     rel.CtlBits,
	}
	n.deferred += int64(rs.Deferred)
	n.relTotals.Retransmits += int64(rel.Retransmits)
	n.relTotals.Acks += int64(rel.Acks)
	n.relTotals.Failures += int64(rel.Failures)
	n.relTotals.Stale += int64(rel.Stale)
	n.relTotals.CtlMessages += int64(rel.CtlMessages)
	n.relTotals.CtlBits += rel.CtlBits

	if anyHalted {
		n.reap()
	}
	// The idle rule: a synchronous round whose send step placed nothing
	// leaves nothing in flight, so the log, the arena and the round
	// scratch go, with every payload they reference; the next round that
	// sends makes them again. A §4 epoch ends on such a round, so its
	// buffers do not outlive it; a steady flood is never idle, and a
	// burst followed by light rounds keeps its capacity until one is.
	// The check is one length per round, never one per send. Under a
	// latency model the kernel keeps its buffers: releasing them there
	// pays the regrowth of every stretched reliable phase.
	if mb := &n.mail; !n.async && len(mb.arena) == 0 {
		mb.segs, mb.arena = nil, nil
		n.scratch, n.cursor = nil, nil
	}
	n.work = append(n.work, rs.Work)
	if n.tracer != nil {
		for _, v := range rs.Inbox {
			rs.Delivered += v
		}
		n.tracer.RoundEnd(*rs)
	}
}

// compute runs the merged receive + compute step in spawn order: it
// restarts the send log, hands each node its pending inbox, and invokes
// the node's handler inline. Between two handlers it seals a nearly full
// log segment (see segLen). After the idle rule there is no round
// scratch, and so no inbox, until the first node that sends makes it.
func (n *Network) compute() (anyHalted bool) {
	rs, traced := &n.stats, n.tracer != nil
	slots := n.slots
	mb := &n.mail
	mb.open(0)
	mb.widest = 0
	var sc []roundSlot
	if n.scratch != nil {
		sc = n.fitScratch()
	}
	for _, s := range n.order {
		st := &slots[s]
		var box []Message
		if sc != nil {
			box = mb.arena[sc[s].inLo:sc[s].inHi]
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
		if traced {
			rs.Inbox = append(rs.Inbox, nprot)
		}
		// Compute: the handler executes inline and its sends append to
		// the log.
		if k := len(mb.log); k >= segLen && k > cap(mb.log)-mb.widest {
			mb.close()
			mb.open(mb.cur + 1)
		}
		lo := int32(len(mb.log))
		if !st.h.OnRound(st.ctx, box) {
			st.halted, anyHalted = true, true
		}
		hi := int32(len(mb.log))
		if sc == nil {
			if hi == 0 {
				continue // nothing sent or received yet this round
			}
			sc = n.fitScratch()
		}
		r := &sc[s]
		r.bits, r.outLo, r.outHi = bits, lo, hi
		if k := int(hi - lo); k > mb.widest {
			mb.widest = min(k, segLen/4)
		}
	}
	// Release the payloads of whatever this round's log no longer covers:
	// the open segment's old tail, and all of the spare segments this
	// round did not reach. Between rounds only the list holds a segment,
	// so the idle rule's drop is a real one.
	mb.close()
	mb.log = nil
	for i := mb.cur + 1; i < len(mb.segs); i++ {
		clear(mb.segs[i])
		mb.segs[i] = mb.segs[i][:0]
	}
	return anyHalted
}

// noDrop marks a message the send step decided to deliver.
const noDrop = NumDropReasons

// send runs the send step: a stable counting sort from the send log
// into the inbox arena. It scans every sender's log range in spawn
// order and, per message, decides the copy count — none for a departed
// receiver, else the injector's — records it (under a latency
// model, after stamping its arrival: see schedule), counts what is due
// next round, and performs the round's accounting: message and bit
// totals, drop and duplication counts, deferrals, departures. place then
// turns the counts into inboxes; the log's segments in order are in
// (sender spawn order, send sequence) order and the sort is stable, so
// every inbox is in canonical order.
func (n *Network) send() (messages int, totalBits, maxBits int64) {
	rs, traced := &n.stats, n.tracer != nil
	sc := n.scratch
	if sc == nil { // nothing was sent or received this round
		if traced {
			rs.Bits = append(rs.Bits, make([]int64, len(n.order))...)
		}
		return 0, 0, 0
	}
	inj := n.injector
	slots := n.slots
	segs := n.mail.segs
	log, hi := segs[0], int32(0)
	async, round := n.async, n.round
	rel := &rs.Reliability
	cnt := n.cursor
	clear(cnt)
	for _, s := range n.order {
		st, r := &slots[s], &sc[s]
		// A node's range starting below its predecessor's end is the
		// first of the next segment: a sealed segment is never empty.
		if r.outLo < hi {
			segs = segs[1:]
			log = segs[0]
		}
		hi = r.outHi
		out := log[r.outLo:r.outHi]
		nctl := 0
		seq := st.seq - uint64(len(out))
		for i := range out {
			e := &out[i]
			t := e.m.slot
			seq++
			copies, reason := 1, noDrop
			switch {
			case t < 0:
				copies, reason = 0, DropDeadReceiver
			case inj != nil:
				if copies = max(inj.Deliveries(round, e.m.From, e.m.To, seq), 0); copies == 0 {
					reason = DropFaultInjected
				}
			}
			e.copies = int32(copies)
			if copies > 0 && async {
				n.schedule(e, round)
			}
			if e.copies > 0 {
				cnt[t] += e.copies
			}
			// Control-lane messages face the same faults but never enter
			// the drop/dup ledger.
			if e.m.lane == laneProtocol {
				if reason != noDrop {
					rs.Dropped[reason]++
				} else if copies > 1 {
					rs.DupExtra += copies - 1
				}
				r.bits += int64(e.m.Bits)
			} else {
				nctl++
				rel.CtlBits += int64(e.m.Bits)
				if e.m.lane == laneAck {
					rel.Acks++
				} else {
					rel.Retransmits++
				}
			}
		}
		messages += len(out) - nctl
		rel.CtlMessages += nctl
		totalBits += r.bits
		if r.bits > maxBits {
			maxBits = r.bits
		}
		if traced {
			rs.Bits = append(rs.Bits, r.bits)
		}
	}
	n.place()
	return messages, totalBits, maxBits
}

// schedule stamps a decided message's arrival under the latency model:
// its delay is a pure function of seed, round and edge (see latency.go).
// It records the arrival tick within the delivery round and, for a
// message due after the next round, moves its copies from the log to
// that round's calendar bucket.
func (n *Network) schedule(e *sent, round int) {
	delay := n.lat.delayTicks(n.latSeed, round, uint64(e.m.From), uint64(e.m.To))
	k := int((delay - 1) / tickScale) // rounds past the next
	e.tick = uint32(delay - uint64(k)*tickScale)
	if k == 0 {
		return
	}
	mb := &n.mail
	for len(mb.cal) <= k {
		mb.cal = append(mb.cal, bucket{})
	}
	b := &mb.cal[k]
	b.push(*e)
	if e.m.lane == laneProtocol {
		b.owed += int(e.copies)
		n.stats.Deferred++
		n.stats.CalendarIn += int(e.copies)
	}
	e.copies = 0
}

// place finishes the counting sort. It counts the calendar bucket due
// next round (an entry whose receiver slot no longer holds its addressee,
// departed since the send, is absorbed; the bucket's protocol-lane copies
// owed less those absorbed are CalendarOut), a prefix sum lays the inboxes
// out in the arena, and one lean pass scatters the bucket, which holds
// older send rounds in send order, then the log: every inbox is in (send
// round, sender position, send sequence) order, and under spread is then
// stably sorted by arrival tick. The arena is overwritten in place; only
// the tail the new round no longer covers has its payloads released.
func (n *Network) place() {
	mb := &n.mail
	cur := n.cursor
	var due bucket
	if len(mb.cal) > 0 {
		due = mb.cal[0]
	}
	absorbed := 0
	for _, c := range due.chunks[:due.used] {
		for i := range c {
			e := &c[i]
			if rcv := &n.slots[e.m.slot]; rcv.live && rcv.id == e.m.To {
				cur[e.m.slot] += e.copies
			} else {
				if e.m.lane == laneProtocol {
					absorbed += int(e.copies)
				}
				e.copies = 0
			}
		}
	}
	sc := n.scratch
	var off int32
	for s := range cur {
		sc[s].inLo = off
		cur[s], off = off, off+cur[s]
		sc[s].inHi = off
	}
	arena := mb.arena
	if total := int(off); total > cap(arena) {
		arena = make([]Message, total, total+total/8)
	} else {
		clear(arena[min(total, len(arena)):])
		arena = arena[:total]
	}
	mb.arena = arena
	spread := n.lat.Spread()
	for _, c := range due.chunks[:due.used] {
		scatter(arena, cur, c, spread)
	}
	for _, log := range mb.segs[:mb.cur+1] {
		scatter(arena, cur, log, spread)
	}
	if spread {
		for s := range sc {
			box := arena[sc[s].inLo:sc[s].inHi]
			slices.SortStableFunc(box, func(a, b Message) int { return cmp.Compare(a.slot, b.slot) })
			for i := range box {
				box[i].slot = int32(s)
			}
		}
	}
	if len(mb.cal) > 0 { // recycle the bucket as the last, its payloads released
		n.stats.CalendarOut, n.stats.CalendarAbsorbed = due.owed-absorbed, absorbed
		for i, c := range due.chunks[:due.used] {
			clear(c)
			due.chunks[i] = c[:0]
		}
		due.used, due.owed = 0, 0
		copy(mb.cal, mb.cal[1:])
		mb.cal[len(mb.cal)-1] = due
	}
}

// bucket is one round's calendar entries, in send order, in chunks:
// chunk 0 grows by append, and once it is full at chunkLen or more every
// further chunk is allocated at chunkLen, so a bucket grows without
// copying itself, as the send log does. Emptied, it keeps its chunks.
type bucket struct {
	chunks [][]sent
	used   int // chunks[:used] hold the entries
	// owed counts the protocol-lane copies scheduled into the bucket: what
	// it must hand out, or absorb, in the round it falls due. It is
	// counted at the push, apart from the entries place reads, so a copy
	// the calendar loses shows as a shortfall in the work ledger.
	owed int
}

const chunkLen = segLen / 4

func (b *bucket) push(e sent) {
	if k := b.used - 1; k < 0 || len(b.chunks[k]) >= chunkLen && len(b.chunks[k]) == cap(b.chunks[k]) {
		if b.used == len(b.chunks) {
			b.chunks = append(b.chunks, make([]sent, 0, chunkLen*min(b.used, 1))) // chunk 0 grows by append
		}
		b.used++
	}
	b.chunks[b.used-1] = append(b.chunks[b.used-1], e)
}

// scatter copies each decided entry of log to its receiver's next arena
// position; with stamp set, the copy's slot holds its arrival tick.
func scatter(arena []Message, cur []int32, log []sent, stamp bool) {
	for i := range log {
		e := &log[i]
		t := e.m.slot
		for c := e.copies; c > 0; c-- {
			arena[cur[t]] = e.m
			if stamp {
				arena[cur[t]].slot = int32(e.tick)
			}
			cur[t]++
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
	n.scratch, n.cursor = nil, nil
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
// between them: all lanes share the same fault and latency machinery.
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
// to the protocol. Counted in the round's reliability stats, as the
// other reports are: handlers run one at a time, so each adds in place.
func (c *Ctx) ReportDeliveryFailure() { c.net.stats.Reliability.Failures++ }

// ReportStaleDelivery records an envelope that arrived after its
// protocol phase had already closed: it is acked (so the sender stops
// retransmitting) but discarded rather than delivered.
func (c *Ctx) ReportStaleDelivery() { c.net.stats.Reliability.Stale++ }

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
	c.net.stats.Reliability.AckDelay[b]++
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
