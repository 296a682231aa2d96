package sim

import (
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

// inboxOf returns the pending inbox of a live node: its range of the
// arena.
func (n *Network) inboxOf(id NodeID) []Message {
	st := &n.slots[n.slotOf(id)]
	return n.mail.arena[st.inLo:st.inHi]
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
// segment list, after the release rule has dropped segments too;
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
		if net.Exists(3) || net.indexed() != 2+senders {
			t.Fatalf("%s: node 3 still tracked: exists=%v indexed=%d, want %d", lat, net.Exists(3), net.indexed(), 2+senders)
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
		net.Run(5 + trimRounds)
		if lat == "sync" {
			// Node 4 sends in rounds 1..6. The round-1 message arrives
			// with the burst, the round-2 one is dropped in transit, and
			// the remaining four arrive in rounds 4..7.
			if want := 1 + senders*leakBurst + 4; delivered != want {
				t.Fatalf("delivered %d messages, want %d", delivered, want)
			}
			if segs := len(net.mail.segs); segs > 1 {
				t.Fatalf("the quiet rounds kept %d log segments, want the release rule to drop all but one", segs)
			}
		}
		if k := net.stalePayloads(); k != 0 {
			t.Fatalf("%s: %d payloads referenced beyond the live log/arena after the quiet rounds", lat, k)
		}
		if k := net.straySegments(); k != 0 {
			t.Fatalf("%s: %d dropped log segments still referenced", lat, k)
		}
		net.Shutdown()
		if net.NumAlive() != 0 || net.indexed() != 0 {
			t.Fatalf("%s: after shutdown alive=%d indexed=%d, want 0/0", lat, net.NumAlive(), net.indexed())
		}
		if mb := &net.mail; mb.segs != nil || mb.log != nil || mb.arena != nil || mb.cal != nil {
			t.Fatalf("%s: Shutdown kept the log/arena/calendar", lat)
		}
		for s := range net.slots {
			if st := &net.slots[s]; st.inLo != st.inHi {
				t.Fatalf("%s: slot %d kept its inbox range after shutdown", lat, s)
			}
		}
	}
}

// dropCounter counts the tracer's drop events by reason.
type dropCounter struct {
	nopTracer
	drops [NumDropReasons]int
}

func (d *dropCounter) MessageDropped(_ int, reason DropReason, _, _ NodeID, _ int) { d.drops[reason]++ }

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
			if net.Exists(id) || net.indexed() != senders {
				t.Fatalf("%s: halted node %d still tracked: exists=%v indexed=%d", spec, id, net.Exists(id), net.indexed())
			}
			if st := &net.slots[s]; st.inLo != st.inHi || st.h != nil || st.ctx != nil {
				t.Fatalf("%s: freed slot keeps state: %+v", spec, *st)
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
		net.DisableWorkLog()
		net.Run(3) // reach the steady state
		_, before := net.bufferSizes()
		if before[0] == 0 || before[1] == 0 {
			t.Fatalf("%v: log/arena never populated: %v", lat, before)
		}
		if allocs := testing.AllocsPerRun(32, net.Step); allocs != 0 {
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
// tick fills the padding after the copy count) and a node-table slot,
// which holds no buffer, 72 B.
func TestEntrySizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit hosts")
	}
	if got := unsafe.Sizeof(sent{}); got != 56 {
		t.Errorf("sent is %d B, want 56", got)
	}
	if got := unsafe.Sizeof(nodeState{}); got != 72 {
		t.Errorf("nodeState is %d B, want 72", got)
	}
}

// TestSealBeforeSilentTail pins the send log's reserve: when the last
// seal of a round comes just before nodes that all stay silent, the empty
// segment it opened does not stay in the log; a round of that shape every
// time reuses it without allocating, and a round that opens no segment
// lets it go.
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
	net.DisableWorkLog()
	net.Step()
	if mb := &net.mail; len(mb.segs) != 1 || mb.reserve == nil {
		t.Fatalf("segments %v and a reserve of %d after a seal before the silent tail, want one segment and a reserve",
			net.segCaps(), cap(mb.reserve))
	}
	if allocs := testing.AllocsPerRun(8, net.Step); allocs != 0 {
		t.Errorf("%v allocs per round of the same shape, want 0", allocs)
	}
	quiet = true
	net.Step()
	if mb := &net.mail; mb.reserve != nil || net.straySegments() != 0 {
		t.Errorf("a round without a seal kept the reserve (%d) or a stray segment", cap(mb.reserve))
	}
	net.Shutdown()
}

// pulseNet spawns 64 nodes that each send fanout(r) messages in round
// r. A node's first message of round r goes to node (v+r) mod 64 and
// carries (r, v); the rest spread over the others. So after a round of
// fanout 1 every node receives exactly one message, from a known
// sender: such inboxes are checked, and bad[v] counts node v's wrong
// ones.
func pulseNet(lat Latency, fanout func(round int) int, bad *[64]int) *Network {
	const nodes = 64
	net := NewNetwork(Config{Seed: 4, Latency: lat})
	for v := 0; v < nodes; v++ {
		net.SpawnHandler(NodeID(v+1), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			r := ctx.Round()
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
	net.DisableWorkLog()
	return net
}

// pulseBurst is the fanout of TestBuffersReleaseAfterQuietRounds's heavy
// rounds: 64 nodes send 5·segLen messages, past four seal points.
const pulseBurst = 5 * segLen / 64

// TestBuffersReleaseAfterQuietRounds pins the release rule on the
// synchronous path: after one burst round the send log and the inbox
// arena keep the burst's capacity through trimRounds-1 light
// rounds, the next light round shrinks them to at most twice the
// window's highest length without moving a pending message — the log by
// dropping its trailing segments, leaving no reference to them — and
// the released sizes then hold. The burst's return regrows the log by
// whole segments and the arena to its first size. The calendar path
// keeps its log. The sampler's shape, heavy rounds alternating with
// rounds an eighth as heavy, never releases.
func TestBuffersReleaseAfterQuietRounds(t *testing.T) {
	const again = 2 + 3*trimRounds // the second burst
	burstThenLight := func(r int) int {
		if r == 1 || r == again {
			return pulseBurst
		}
		return 1
	}
	for _, lat := range []Latency{{}, {Kind: LatencyConst, A: 1}} {
		name := lat.String()
		var bad [64]int
		net := pulseNet(lat, burstThenLight, &bad)
		net.Step() // the burst
		_, burst := net.bufferSizes()
		burstSegs := net.segCaps()
		if len(burstSegs) < 4 {
			t.Fatalf("%s: the burst filled %d log segments, want >= 4 (3 seals)", name, len(burstSegs))
		}
		high := make([]int, len(burst))
		for q := 1; q < trimRounds; q++ {
			net.Step()
			lens, caps := net.bufferSizes()
			if !slices.Equal(caps, burst) {
				t.Fatalf("%s: capacities moved after %d quiet rounds: %v -> %v", name, q, burst, caps)
			}
			for i, l := range lens {
				high[i] = max(high[i], l)
			}
		}
		net.Step() // the window's last round, as light as the others
		_, released := net.bufferSizes()
		if lat.Enabled() {
			if !slices.Equal(released, burst) {
				t.Errorf("%s: the calendar path released its buffers: %v -> %v", name, burst, released)
			}
		} else {
			for i, c := range released {
				if c <= 0 || c > 2*high[i] || c >= burst[i] {
					t.Errorf("%s: buffer %d has capacity %d after the window, want in (0, %d] (burst %d)", name, i, c, 2*high[i], burst[i])
				}
			}
		}
		if k := net.stalePayloads(); k != 0 {
			t.Errorf("%s: %d payloads referenced beyond the released buffers", name, k)
		}
		if k := net.straySegments(); k != 0 {
			t.Errorf("%s: %d dropped log segments still referenced", name, k)
		}
		net.Run(2 * trimRounds)
		if _, caps := net.bufferSizes(); !slices.Equal(caps, released) {
			t.Errorf("%s: light rounds moved the released capacities: %v -> %v", name, released, caps)
		}
		net.Step() // the second burst
		_, regrown := net.bufferSizes()
		segs := net.segCaps()
		if len(segs) != len(burstSegs) || regrown[1] != burst[1] {
			t.Errorf("%s: the second burst regrew %d segments and an arena of %d, the first %d and %d",
				name, len(segs), regrown[1], len(burstSegs), burst[1])
		}
		for i, c := range segs[1:] {
			if c != burstSegs[i+1] {
				t.Errorf("%s: the second burst's segment %d has capacity %d, the first's %d", name, i+1, c, burstSegs[i+1])
			}
		}
		net.Run(2) // deliver it, then a checked light round
		if bad != [64]int{} {
			t.Errorf("%s: light-round inboxes arrived wrong, per node: %v", name, bad)
		}
		net.Shutdown()

		net = pulseNet(lat, func(r int) int { return pulseBurst/8 + (pulseBurst-pulseBurst/8)*(r%2) }, &bad)
		net.Step()
		_, first := net.bufferSizes()
		for r := 2; r <= 64; r++ {
			net.Step()
			if _, caps := net.bufferSizes(); !slices.Equal(caps, first) {
				t.Fatalf("%s: 8:1 alternation moved the capacities in round %d: %v -> %v", name, r, first, caps)
			}
		}
		net.Shutdown()
	}
}

// TestTrimObserve walks the release rule through a §4-like life: a
// burst, a first release that keeps the tail's traffic, a second down to
// the light rounds, the burst's return (which only restarts the window:
// the buffer regrows by itself), a window a busy round interrupts, and a
// release out of total silence.
func TestTrimObserve(t *testing.T) {
	var tr trim
	step := func(length, capacity, want int) {
		t.Helper()
		if got := tr.observe(length, capacity); got != want {
			t.Fatalf("observe(%d, %d) = %d, want %d (state %+v)", length, capacity, got, want, tr)
		}
	}
	step(1000, 1200, -1) // the burst
	for q := 1; q < trimRounds; q++ {
		step(100+q, 1200, -1)
	}
	step(100, 1200, 2*(100+trimRounds-1)) // window high 107
	for q := 1; q < trimRounds; q++ {
		step(20, 214, -1)
	}
	step(25, 214, 50)    // released again
	step(40, 64, -1)     // regrown a little
	step(1100, 1200, -1) // the burst is back, at its own size
	for q := 1; q < trimRounds; q++ {
		step(5, 1200, -1)
	}
	step(300, 1200, -1) // a busy round restarts the window
	for q := 1; q < trimRounds; q++ {
		step(0, 1200, -1)
	}
	step(0, 1200, 0) // silence: released to nothing
	step(9, 16, -1)
	step(90, 128, -1)
}
