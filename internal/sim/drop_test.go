package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"slices"
	"testing"
	"unsafe"
)

// indexed counts the ids the network can resolve — dense table and
// overflow map together. White-box helper: a departed node must leave
// no entry in either.
func (n *Network) indexed() int {
	k := len(n.sparse)
	for _, s := range n.dense {
		if s != 0 {
			k++
		}
	}
	return k
}

// stepBounded empties the work log, keeping its capacity, and runs one
// round: a steady-state measurement over many rounds allocates nothing
// for the log.
func (n *Network) stepBounded() {
	n.ResetWork()
	n.Step()
}

// alive returns the ids of the live nodes in spawn order.
func (n *Network) alive() []NodeID {
	ids := make([]NodeID, len(n.order))
	for i, s := range n.order {
		ids[i] = n.slots[s].id
	}
	return ids
}

// inRange returns slot s's pending inbox as a range of the arena: empty
// for a slot the round scratch does not cover.
func (n *Network) inRange(s int32) (lo, hi int32) {
	if int(s) < len(n.scratch) {
		return n.scratch[s].inLo, n.scratch[s].inHi
	}
	return 0, 0
}

// inboxOf returns the pending inbox of a live node.
func (n *Network) inboxOf(id NodeID) []Message {
	lo, hi := n.inRange(n.slotOf(id))
	return n.mail.arena[lo:hi]
}

// stalePayloads counts payload references the delivery state holds
// outside its live part: beyond the length of a log segment or a
// calendar chunk (a spare chunk included), or of the arena, up to
// capacity.
func (n *Network) stalePayloads() int {
	k := 0
	mb := &n.mail
	segs := mb.segs
	for _, b := range mb.cal {
		segs = append(segs[:len(segs):len(segs)], b.chunks...)
	}
	for _, seg := range segs {
		for _, e := range seg[len(seg):cap(seg)] {
			if e.m.Payload != nil {
				k++
			}
		}
	}
	for _, m := range mb.arena[len(mb.arena):cap(mb.arena)] {
		if m.Payload != nil {
			k++
		}
	}
	return k
}

// inFlightTo counts the calendar's copies addressed to id.
func (n *Network) inFlightTo(id NodeID) int {
	k := 0
	for _, b := range n.mail.cal {
		for _, c := range b.chunks[:b.used] {
			for _, e := range c {
				if e.m.To == id {
					k += int(e.copies)
				}
			}
		}
	}
	return k
}

// straySegments counts the send-log segments referenced from outside the
// segment list between rounds: from the list's spare capacity (where a
// truncation leaves the segments it drops) or as the open segment.
func (n *Network) straySegments() int {
	mb := &n.mail
	k := 0
	for _, seg := range mb.segs[len(mb.segs):cap(mb.segs)] {
		if seg != nil {
			k++
		}
	}
	if mb.log != nil {
		k++
	}
	return k
}

// bufferSizes returns the length and the capacity of the send log (all
// of its segments) and the inbox arena, in that order.
func (n *Network) bufferSizes() (lens, caps []int) {
	mb := &n.mail
	logLen, logCap := 0, 0
	for _, seg := range mb.segs {
		logLen, logCap = logLen+len(seg), logCap+cap(seg)
	}
	return []int{logLen, len(mb.arena)}, []int{logCap, cap(mb.arena)}
}

// segCaps returns the capacities of the send log's segments.
func (n *Network) segCaps() []int {
	caps := make([]int, len(n.mail.segs))
	for i, seg := range n.mail.segs {
		caps[i] = cap(seg)
	}
	return caps
}

// burst sends k messages to each of the given ids in the rounds listed,
// and nothing otherwise.
func burst(k int, rounds map[int]bool, to ...NodeID) Handler {
	return HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		if rounds[ctx.Round()] {
			for i := 0; i < k; i++ {
				for _, id := range to {
					ctx.Send(id, "heavy payload", 8)
				}
			}
		}
		return true
	})
}

// leakBurst is how many messages each of TestDroppedMessagesDoNotLeak's
// burst nodes sends to each of its two targets in round 1: sixteen such
// senders fill four send-log segments.
const leakBurst = segLen / 8

// dropRound is an Injector that drops every message sent in one round.
type dropRound int

func (d dropRound) Deliveries(round int, _, _ NodeID, _ uint64) int {
	if round == int(d) {
		return 0
	}
	return 1
}

// TestDroppedMessagesDoNotLeak is the regression test for the old
// leftover-mailbox hazard: mail dropped in transit is never placed, and
// a delivered burst does not outlive its round; once a round has passed,
// nothing outside the live part
// of a log segment or arena still references a payload (and nothing at
// all after Shutdown), and no segment is referenced from outside the
// segment list, after the idle rule has dropped the buffers too;
// departed nodes leave no bookkeeping behind.
func TestDroppedMessagesDoNotLeak(t *testing.T) {
	const senders = 16
	for _, lat := range []string{"sync", "uniform:1,2"} {
		l, _ := ParseLatency(lat)
		net := NewNetwork(Config{Seed: 1, Latency: l})
		net.SetInjector(dropRound(2))
		// Node 4 sends 1+1 messages in rounds 1..6; sixteen burst nodes
		// send leakBurst+leakBurst each in round 1, across several sealed
		// log segments, so log and arena shrink after the first round.
		net.SpawnHandler(4, burst(1, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}, 2, 3))
		for i := 0; i < senders; i++ {
			net.SpawnHandler(NodeID(10+i), burst(leakBurst, map[int]bool{1: true}, 2, 3))
		}
		delivered := 0
		net.SpawnHandler(2, HandlerFunc(func(_ *Ctx, inbox []Message) bool {
			delivered += len(inbox)
			return true
		}))
		net.SpawnHandler(3, HandlerFunc(func(*Ctx, []Message) bool { return false })) // departs after round 1

		net.Step() // round 1: first sends go out; node 3 departs
		if net.slotOf(3) >= 0 || net.indexed() != 2+senders {
			t.Fatalf("%s: node 3 still tracked: exists=%v indexed=%d, want %d", lat, net.slotOf(3) >= 0, net.indexed(), 2+senders)
		}
		if segs := len(net.mail.segs); segs < 4 {
			t.Fatalf("%s: the burst filled %d log segments, want >= 4 (3 seals)", lat, segs)
		}
		if lat == "sync" {
			if got, want := len(net.inboxOf(2)), 1+senders*leakBurst; got != want {
				t.Fatalf("node 2 has %d pending messages after round 1, want %d", got, want)
			}
		}
		// Round 2 delivers the burst to node 2, and the injector drops
		// every send of the round: none may be placed.
		net.Step()
		if lat == "sync" {
			if want := 1 + senders*leakBurst; delivered != want {
				t.Fatalf("node 2 received %d messages in round 2, want %d", delivered, want)
			}
			if got := len(net.mail.arena); got != 0 {
				t.Fatalf("the arena kept %d messages after a round whose sends were all dropped", got)
			}
		}
		net.Step()
		if k := net.stalePayloads(); k != 0 {
			t.Fatalf("%s: %d messages beyond the live log/arena still reference a payload", lat, k)
		}
		if k := net.straySegments(); k != 0 {
			t.Fatalf("%s: %d log segments referenced from outside the segment list", lat, k)
		}
		net.Run(5)
		if lat == "sync" {
			// Node 4 sends in rounds 1..6. The round-1 message arrives
			// with the burst, the round-2 one is dropped in transit, and
			// the remaining four arrive in rounds 4..7.
			if want := 1 + senders*leakBurst + 4; delivered != want {
				t.Fatalf("delivered %d messages, want %d", delivered, want)
			}
			if mb := &net.mail; mb.segs != nil || mb.arena != nil {
				t.Fatalf("the silent round 8 kept %d log segments and an arena of %d, want the idle rule to drop both",
					len(mb.segs), cap(mb.arena))
			}
		}
		if k := net.stalePayloads(); k != 0 {
			t.Fatalf("%s: %d payloads referenced beyond the live log/arena after the quiet rounds", lat, k)
		}
		if k := net.straySegments(); k != 0 {
			t.Fatalf("%s: %d dropped log segments still referenced", lat, k)
		}
		net.Shutdown()
		if len(net.order) != 0 || net.indexed() != 0 {
			t.Fatalf("%s: after shutdown alive=%d indexed=%d, want 0/0", lat, len(net.order), net.indexed())
		}
		if mb := &net.mail; mb.segs != nil || mb.log != nil || mb.arena != nil || mb.cal != nil {
			t.Fatalf("%s: Shutdown kept the log/arena/calendar", lat)
		}
		for s := range net.slots {
			if lo, hi := net.inRange(int32(s)); lo != hi {
				t.Fatalf("%s: slot %d kept its inbox range after shutdown", lat, s)
			}
		}
	}
}

// dropCounter sums the rounds' drops by reason.
type dropCounter struct {
	nopTracer
	drops [NumDropReasons]int
}

func (d *dropCounter) RoundEnd(stats RoundStats) {
	for r, k := range stats.Dropped {
		d.drops[r] += k
	}
}

// TestKilledNodeBuffersReleased checks that a node whose handler halts
// (returns false before reading its inbox) leaves no network-side state
// after that round: no index entry, an empty inbox range for the slot's
// next occupant. Under a latency model the messages still in flight to
// the departed node are absorbed: they never reach the slot's next
// occupant and record no drop.
func TestKilledNodeBuffersReleased(t *testing.T) {
	const senders = 4
	for _, spec := range []string{"sync", "const:3", "uniform:1,3"} {
		lat, _ := ParseLatency(spec)
		for _, id := range []NodeID{2, 1<<40 + 2} {
			net := NewNetwork(Config{Seed: 2, Latency: lat})
			tr := &dropCounter{}
			net.SetTracer(tr)
			every := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
			for v := NodeID(0); v < senders; v++ {
				net.SpawnHandler(100+v, burst(1, every, id))
			}
			halt := false
			net.SpawnHandler(id, HandlerFunc(func(*Ctx, []Message) bool { return !halt }))
			net.Step()
			s := net.slotOf(id)
			halt = true
			net.Step()
			if net.slotOf(id) >= 0 || net.indexed() != senders {
				t.Fatalf("%s: halted node %d still tracked: exists=%v indexed=%d", spec, id, net.slotOf(id) >= 0, net.indexed())
			}
			if lo, hi := net.inRange(s); lo != hi || net.slots[s].h != nil || net.slots[s].ctx != nil {
				t.Fatalf("%s: freed slot keeps state: %+v, inbox [%d, %d)", spec, net.slots[s], lo, hi)
			}
			if inFlight := net.inFlightTo(id); lat.Enabled() != (inFlight > 0) {
				t.Fatalf("%s: test premise broken: %d copies in flight to the halted node", spec, inFlight)
			}
			// Sends to the dead id must keep being dropped without error, and
			// must not reach the node that takes over the slot.
			got := 0
			net.SpawnHandler(id+1, HandlerFunc(func(_ *Ctx, inbox []Message) bool { got += len(inbox); return true }))
			if net.slotOf(id+1) != s {
				t.Fatalf("%s: test premise broken: slot %d not reused", spec, s)
			}
			net.Run(3)
			net.Shutdown()
			if got != 0 {
				t.Fatalf("%s: slot's next occupant received %d messages addressed to the dead id", spec, got)
			}
			// The only drops are rounds 3-5's sends to the dead id.
			want := [NumDropReasons]int{DropDeadReceiver: 3 * senders}
			if tr.drops != want {
				t.Fatalf("%s: drops by reason %v, want %v", spec, tr.drops, want)
			}
		}
	}
}

// TestInboxBufferReuse pins the property the benchmarks rely on: in
// steady state the send logs and inbox arenas are overwritten in place —
// their capacity does not move and a round allocates nothing — on the
// synchronous path, and under latency models with and without calendar
// buckets.
func TestInboxBufferReuse(t *testing.T) {
	for _, lat := range []Latency{{}, {Kind: LatencyConst, A: 1}, {Kind: LatencyConst, A: 3}} {
		net := NewNetwork(Config{Seed: 3, Latency: lat})
		for v := 0; v < 64; v++ {
			net.SpawnHandler(NodeID(v+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				for j := 0; j < 3; j++ {
					ctx.Send(NodeID((int(ctx.ID())*7+j*11)%64+1), j, 8)
				}
				return true
			}))
		}
		net.Run(3) // reach the steady state
		_, before := net.bufferSizes()
		if before[0] == 0 || before[1] == 0 {
			t.Fatalf("%v: log/arena never populated: %v", lat, before)
		}
		if allocs := testing.AllocsPerRun(32, net.stepBounded); allocs != 0 {
			t.Errorf("%v: %v allocs per steady round, want 0", lat, allocs)
		}
		if _, after := net.bufferSizes(); !slices.Equal(before, after) {
			t.Errorf("%v: log/arena capacities moved: %v -> %v", lat, before, after)
		}
		net.Shutdown()
	}
}

// TestEntrySizes pins the layouts the kernel's memory figures rest on,
// on 64-bit hosts: a send-log or calendar entry is 56 B (the arrival
// tick fills the padding after the copy count). What a node keeps from
// round to round is a node-table slot, which holds no buffer, of 48 B
// and a Ctx of 64 B; its 24 B of round scratch go with the idle rule.
func TestEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit hosts")
	}
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"sent", unsafe.Sizeof(sent{}), 56},
		{"nodeState", unsafe.Sizeof(nodeState{}), 48},
		{"Ctx", unsafe.Sizeof(Ctx{}), 64},
		{"roundSlot", unsafe.Sizeof(roundSlot{}), 24},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSealBeforeSilentTail pins the send log across a seal that comes
// just before nodes that all stay silent: the empty segment the seal
// opened stays in the list, so a round of that shape every time reuses
// it without allocating, and the first silent round lets every segment
// go.
func TestSealBeforeSilentTail(t *testing.T) {
	const senders = 8 // segLen/senders each: segment 0 is full after the last
	quiet, payload := false, any("tail")
	net := NewNetwork(Config{Seed: 5})
	for v := 1; v <= senders; v++ {
		net.SpawnHandler(NodeID(v), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			for j := 0; !quiet && j < segLen/senders; j++ {
				ctx.Send(senders+1, payload, 8)
			}
			return true
		}))
	}
	net.SpawnHandler(senders+1, burst(0, nil))
	net.Step()
	if mb := &net.mail; len(mb.segs) != 2 || len(mb.segs[1]) != 0 {
		t.Fatalf("segments %v after a seal before the silent tail, want a full one and an empty one", net.segCaps())
	}
	if allocs := testing.AllocsPerRun(8, net.stepBounded); allocs != 0 {
		t.Errorf("%v allocs per round of the same shape, want 0", allocs)
	}
	quiet = true
	net.Step() // delivers the last burst; sends nothing
	if mb := &net.mail; mb.segs != nil || mb.arena != nil || net.straySegments() != 0 {
		t.Errorf("a silent round kept segments %v, an arena of %d or a stray segment", net.segCaps(), cap(mb.arena))
	}
	net.Shutdown()
}

// pulseNet spawns 64 nodes that each send fanout(r) messages in round
// r. A node's first message of round r goes to node (v+r) mod 64 and
// carries (r, v); the rest spread over the others. So after a round of
// fanout 1 every node receives exactly one message, from a known
// sender: such inboxes are checked, and bad[v] counts node v's wrong
// ones. Every inbox, with the receiver and the round, goes into h.
func pulseNet(lat Latency, fanout func(round int) int, bad *[64]int, h hash.Hash64) *Network {
	const nodes = 64
	net := NewNetwork(Config{Seed: 4, Latency: lat})
	for v := 0; v < nodes; v++ {
		net.SpawnHandler(NodeID(v+1), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			r := ctx.Round()
			hashInbox(h, ctx, inbox)
			if r > 1 && fanout(r-1) == 1 {
				u := ((v-r+1)%nodes + nodes) % nodes
				if len(inbox) != 1 || inbox[0].From != NodeID(u+1) || inbox[0].Payload != [2]int{r - 1, u} {
					bad[v]++
				}
			}
			for j := 0; j < fanout(r); j++ {
				to := (v + r) % nodes
				if j > 0 {
					to = (v*7 + j*11) % nodes
				}
				ctx.Send(NodeID(to+1), [2]int{r, v}, 8)
			}
			return true
		}))
	}
	return net
}

// hashInbox folds a node's inbox of the round into h.
func hashInbox(h hash.Hash64, ctx *Ctx, inbox []Message) {
	fmt.Fprintf(h, "%d %d:", ctx.Round(), ctx.ID())
	for _, m := range inbox {
		fmt.Fprintf(h, " %d %v %d", m.From, m.Payload, m.Bits)
	}
	fmt.Fprintln(h)
}

// pulseBurst is the fanout of TestBuffersReleaseWhenIdle's heavy
// rounds: 64 nodes send 5·segLen messages, past four seal points.
const pulseBurst = 5 * segLen / 64

// TestBuffersReleaseWhenIdle pins the idle rule. A burst round followed
// by light rounds that each send one message per node keeps the burst's
// send-log and arena capacity, without moving a pending message, and a
// node spawned between two of them joins the round scratch without
// moving one either. On the synchronous path the first round that sends
// nothing leaves nothing in flight and holds no buffer afterwards: no
// log, arena, round scratch or cursor, and no payload or dropped segment
// stays referenced. A node spawned then starts with an empty inbox, and
// the burst's return regrows the log by the same segments and the arena
// to its first size. The calendar path never releases; at zero spread it
// delivers what the synchronous path does, so every inbox of the two
// runs hashes alike.
func TestBuffersReleaseWhenIdle(t *testing.T) {
	const (
		light = 12 // rounds 2..light send one message per node
		again = 16 // the second burst, after silent rounds
	)
	fanout := func(r int) int {
		switch {
		case r == 1 || r == again:
			return pulseBurst
		case r <= light || r > again:
			return 1
		}
		return 0
	}
	digests := map[string]uint64{}
	for _, lat := range []Latency{{}, {Kind: LatencyConst, A: 1}} {
		name := lat.String()
		var bad [64]int
		h := fnv.New64a()
		net := pulseNet(lat, fanout, &bad, h)
		// The two late nodes, 65 and 66, record their first and their last
		// inbox, and send each other one message in the round after the
		// second burst.
		first, last := map[NodeID]int{}, map[NodeID]int{}
		late := HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			hashInbox(h, ctx, inbox)
			if _, ok := first[ctx.ID()]; !ok {
				first[ctx.ID()] = len(inbox)
			}
			last[ctx.ID()] = len(inbox)
			if ctx.Round() == again+1 {
				ctx.Send(131-ctx.ID(), "late", 8)
			}
			return true
		})
		net.Step() // the burst
		_, burst := net.bufferSizes()
		burstSegs := net.segCaps()
		if len(burstSegs) < 4 {
			t.Fatalf("%s: the burst filled %d log segments, want >= 4 (3 seals)", name, len(burstSegs))
		}
		for r := 2; r <= light+1; r++ { // round light+1 delivers the last light round, sending nothing
			if r == light/2 {
				net.SpawnHandler(65, late) // inboxes are pending
			}
			net.Step()
			if lens, caps := net.bufferSizes(); r <= light && !slices.Equal(caps, burst) {
				t.Fatalf("%s: light round %d moved the capacities %v -> %v (lengths %v)", name, r, burst, caps, lens)
			}
		}
		_, idle := net.bufferSizes()
		if lat.Enabled() {
			if !slices.Equal(idle, burst) || len(net.scratch) != len(net.slots) || len(net.cursor) != len(net.slots) {
				t.Errorf("%s: the calendar path released its buffers: %v -> %v, scratch %d and cursor %d of %d slots",
					name, burst, idle, len(net.scratch), len(net.cursor), len(net.slots))
			}
		} else if mb := &net.mail; mb.segs != nil || mb.arena != nil || mb.log != nil || net.scratch != nil || net.cursor != nil {
			t.Errorf("%s: a round that left nothing in flight kept log segments %v, an arena of %d, a round scratch of %d or a cursor of %d",
				name, net.segCaps(), cap(mb.arena), cap(net.scratch), cap(net.cursor))
		}
		if k := net.stalePayloads(); k != 0 {
			t.Errorf("%s: %d payloads referenced beyond the buffers", name, k)
		}
		if k := net.straySegments(); k != 0 {
			t.Errorf("%s: %d dropped log segments still referenced", name, k)
		}
		net.SpawnHandler(66, late) // nothing is in flight
		net.Run(again - light - 2)
		if _, caps := net.bufferSizes(); !slices.Equal(caps, idle) {
			t.Errorf("%s: silent rounds moved the capacities: %v -> %v", name, idle, caps)
		}
		if !lat.Enabled() && net.scratch != nil {
			t.Errorf("%s: silent rounds made a round scratch of %d", name, len(net.scratch))
		}
		net.Step() // the second burst
		_, regrown := net.bufferSizes()
		if segs := net.segCaps(); !slices.Equal(segs, burstSegs) || regrown[1] != burst[1] {
			t.Errorf("%s: the second burst regrew segments %v and an arena of %d, the first %v and %d",
				name, segs, regrown[1], burstSegs, burst[1])
		}
		if len(net.scratch) != len(net.slots) || len(net.cursor) != len(net.slots) {
			t.Errorf("%s: the second burst regrew a round scratch of %d and a cursor of %d for %d slots",
				name, len(net.scratch), len(net.cursor), len(net.slots))
		}
		net.Run(2) // deliver it, then a checked light round and the late nodes' exchange
		if bad != [64]int{} {
			t.Errorf("%s: light-round inboxes arrived wrong, per node: %v", name, bad)
		}
		if want := map[NodeID]int{65: 0, 66: 0}; !maps.Equal(first, want) {
			t.Errorf("%s: the late nodes' first inboxes held %v messages, want %v", name, first, want)
		}
		if want := map[NodeID]int{65: 1, 66: 1}; !maps.Equal(last, want) {
			t.Errorf("%s: the late nodes' last inboxes held %v messages, want %v", name, last, want)
		}
		digests[name] = h.Sum64()
		net.Shutdown()
	}
	if digests["sync"] != digests["const:1"] {
		t.Errorf("the synchronous path, which released and regrew its buffers, delivered inboxes %#x; the calendar path %#x",
			digests["sync"], digests["const:1"])
	}
}
