package sim

import (
	"fmt"
	"slices"
	"testing"
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
// arena of the worker that filled it.
func (n *Network) inboxOf(id NodeID) []Message {
	st := &n.slots[n.slotOf(id)]
	return n.mail[st.inW].arena[st.inLo:st.inHi]
}

// stalePayloads counts payload references the delivery state holds
// outside its live part: beyond the length of a log, an arena or a
// scratch box, up to capacity.
func (n *Network) stalePayloads() int {
	k := 0
	for w := range n.mail {
		mb := &n.mail[w]
		for _, e := range mb.log[len(mb.log):cap(mb.log)] {
			if e.m.Payload != nil {
				k++
			}
		}
		for _, box := range [][]Message{mb.arena, mb.box} {
			for _, m := range box[len(box):cap(box)] {
				if m.Payload != nil {
					k++
				}
			}
		}
	}
	return k
}

// bufferSizes returns the length and the capacity of every worker's
// send log and inbox arena, in worker order (log, arena, log, ...).
func (n *Network) bufferSizes() (lens, caps []int) {
	for w := range n.mail {
		mb := &n.mail[w]
		lens = append(lens, len(mb.log), len(mb.arena))
		caps = append(caps, cap(mb.log), cap(mb.arena))
	}
	return lens, caps
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

// TestDroppedMessagesDoNotLeak is the regression test for the old
// leftover-mailbox hazard: mail pending for a blocked node is dropped,
// not deferred; once a round has passed, nothing outside the live part
// of a log or arena still references a payload (and nothing at all after
// Shutdown); departed nodes leave no bookkeeping behind.
func TestDroppedMessagesDoNotLeak(t *testing.T) {
	for _, lat := range []string{"sync", "uniform:1,2"} {
		l, _ := ParseLatency(lat)
		net := NewNetwork(Config{Seed: 1, Latency: l})
		// Node 1 sends 8+8 messages in round 1 and 1+1 in rounds 2..6, so
		// log and arena shrink after the first round.
		net.SpawnHandler(1, burst(7, map[int]bool{1: true}, 2, 3))
		net.SpawnHandler(4, burst(1, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}, 2, 3))
		delivered := 0
		net.SpawnHandler(2, HandlerFunc(func(_ *Ctx, inbox []Message) bool {
			delivered += len(inbox)
			return true
		}))
		net.SpawnHandler(3, HandlerFunc(func(*Ctx, []Message) bool { return false })) // departs after round 1

		net.Step() // round 1: first sends go out; node 3 departs
		if net.Exists(3) || net.indexed() != 3 {
			t.Fatalf("%s: node 3 still tracked: exists=%v indexed=%d, want 3", lat, net.Exists(3), net.indexed())
		}
		if lat == "sync" {
			if got := len(net.inboxOf(2)); got != 8 {
				t.Fatalf("node 2 has %d pending messages after round 1, want 8", got)
			}
		}
		// Node 2 is blocked in round 2, its delivery round: the pending
		// inbox must be dropped, not deferred.
		net.SetBlocked(map[NodeID]bool{2: true})
		net.Step()
		if delivered != 0 {
			t.Fatalf("%s: blocked node received %d messages", lat, delivered)
		}
		if lat == "sync" {
			// Round 2's only deliverable sends went to the blocked node
			// (send-round half) and the departed one: the arena is empty.
			if got := len(net.inboxOf(2)); got != 0 {
				t.Fatalf("blocked node kept %d pending messages", got)
			}
		}
		net.Step()
		if k := net.stalePayloads(); k != 0 {
			t.Fatalf("%s: %d messages beyond the live log/arena still reference a payload", lat, k)
		}
		net.Run(5)
		if lat == "sync" {
			// Node 4 sends in rounds 1..6. The round-1 burst is dropped at
			// delivery (receiver blocked in round 2) and the round-2 send at
			// send time (receiver blocked in the send round); the remaining
			// four arrive in rounds 4..7.
			if delivered != 4 {
				t.Fatalf("delivered %d messages, want 4", delivered)
			}
		}
		net.Shutdown()
		if net.NumAlive() != 0 || net.indexed() != 0 {
			t.Fatalf("%s: after shutdown alive=%d indexed=%d, want 0/0", lat, net.NumAlive(), net.indexed())
		}
		for w := range net.mail {
			if mb := &net.mail[w]; mb.log != nil || mb.arena != nil || mb.box != nil {
				t.Fatalf("%s: Shutdown kept worker %d's log/arena", lat, w)
			}
		}
		for s := range net.slots {
			st := &net.slots[s]
			if st.inLo != st.inHi {
				t.Fatalf("%s: slot %d kept its inbox range after shutdown", lat, s)
			}
			for _, pm := range st.future[:cap(st.future)] {
				if pm.m.Payload != nil {
					t.Fatalf("%s: slot %d's calendar still references a payload after shutdown", lat, s)
				}
			}
		}
	}
}

// TestKilledNodeBuffersReleased checks that killing a node removes all
// of its network-side state in the same round: no index entry, an empty
// inbox range for the slot's next occupant.
func TestKilledNodeBuffersReleased(t *testing.T) {
	for _, id := range []NodeID{2, 1<<40 + 2} {
		net := NewNetwork(Config{Seed: 2})
		every := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}
		net.SpawnHandler(1, burst(1, every, id))
		net.SpawnHandler(id, burst(0, nil))
		net.Step()
		s := net.slotOf(id)
		net.Kill(id)
		net.Step()
		if net.Exists(id) || net.indexed() != 1 {
			t.Fatalf("killed node %d still tracked: exists=%v indexed=%d", id, net.Exists(id), net.indexed())
		}
		if st := &net.slots[s]; st.inLo != st.inHi || st.h != nil || st.ctx != nil {
			t.Fatalf("freed slot keeps state: %+v", *st)
		}
		// Sends to the dead id must keep being dropped without error, and
		// must not reach the node that takes over the slot.
		got := 0
		net.SpawnHandler(id+1, HandlerFunc(func(_ *Ctx, inbox []Message) bool { got += len(inbox); return true }))
		if net.slotOf(id+1) != s {
			t.Fatalf("test premise broken: slot %d not reused", s)
		}
		net.Run(3)
		net.Shutdown()
		if got != 0 {
			t.Fatalf("slot's next occupant received %d messages addressed to the dead id", got)
		}
	}
}

// TestInboxBufferReuse pins the property the benchmarks rely on: in
// steady state the send logs and inbox arenas are overwritten in place —
// their capacity does not move and a round allocates nothing — on the
// serial, sharded and calendar paths alike.
func TestInboxBufferReuse(t *testing.T) {
	for _, tc := range []struct {
		shards int
		lat    Latency
	}{{1, Latency{}}, {3, Latency{}}, {1, Latency{Kind: LatencyConst, A: 1}}} {
		net := NewNetwork(Config{Seed: 3, Shards: tc.shards, Latency: tc.lat})
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
		if before[0] == 0 || !tc.lat.Enabled() && before[1] == 0 {
			t.Fatalf("shards=%d %v: log/arena never populated: %v", tc.shards, tc.lat, before)
		}
		if allocs := testing.AllocsPerRun(32, net.Step); allocs != 0 {
			t.Errorf("shards=%d %v: %v allocs per steady round, want 0", tc.shards, tc.lat, allocs)
		}
		if _, after := net.bufferSizes(); !slices.Equal(before, after) {
			t.Errorf("shards=%d %v: log/arena capacities moved: %v -> %v", tc.shards, tc.lat, before, after)
		}
		net.Shutdown()
	}
}

// pulseNet spawns 64 nodes that each send fanout(r) messages in round
// r. A node's first message of round r goes to node (v+r) mod 64 and
// carries (r, v); the rest spread over the others. So after a round of
// fanout 1 every node receives exactly one message, from a known
// sender: such inboxes are checked, and bad[v] counts node v's wrong
// ones.
func pulseNet(shards int, lat Latency, fanout func(round int) int, bad *[64]int) *Network {
	const nodes = 64
	net := NewNetwork(Config{Seed: 4, Shards: shards, Latency: lat})
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

// TestBuffersReleaseAfterQuietRounds pins the release rule on the
// serial and sharded paths: after one burst round the send logs and
// inbox arenas keep the burst's capacity through trimRounds-1 light
// rounds, the next light round shrinks them to at most twice the
// window's highest length without moving a pending message, and the
// released sizes then hold. The calendar path keeps its log. The
// sampler's shape, heavy rounds alternating with rounds an eighth as
// heavy, never releases.
func TestBuffersReleaseAfterQuietRounds(t *testing.T) {
	const again = 2 + 3*trimRounds // the second burst
	burstThenLight := func(r int) int {
		if r == 1 || r == again {
			return 32
		}
		return 1
	}
	for _, tc := range []struct {
		shards int
		lat    Latency
	}{
		{1, Latency{}}, {3, Latency{}},
		{1, Latency{Kind: LatencyConst, A: 1}}, {3, Latency{Kind: LatencyConst, A: 1}},
	} {
		name := fmt.Sprintf("shards=%d %v", tc.shards, tc.lat)
		var bad [64]int
		net := pulseNet(tc.shards, tc.lat, burstThenLight, &bad)
		net.Step() // the burst
		_, burst := net.bufferSizes()
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
		if tc.lat.Enabled() {
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
		net.Run(2 * trimRounds)
		if _, caps := net.bufferSizes(); !slices.Equal(caps, released) {
			t.Errorf("%s: light rounds moved the released capacities: %v -> %v", name, released, caps)
		}
		net.Step() // the second burst
		_, regrown := net.bufferSizes()
		for i, c := range regrown {
			if c < burst[i] {
				t.Errorf("%s: the second burst left capacities %v, below the first's %v", name, regrown, burst)
				break
			}
		}
		net.Run(2) // deliver it, then a checked light round
		if bad != [64]int{} {
			t.Errorf("%s: light-round inboxes arrived wrong, per node: %v", name, bad)
		}
		net.Shutdown()

		net = pulseNet(tc.shards, tc.lat, func(r int) int { return 4 + 28*(r%2) }, &bad)
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
// the light rounds, growth that stays light, the burst's return, and a
// release out of total silence, which forgets the burst.
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
	step(25, 214, 50)  // released again; the peak stays 1200
	step(40, 64, -1)   // regrown, but not past trimShare·50
	step(180, 200, -1) // still not
	step(180, 200, -1)
	step(190, 250, 1200) // past it: the burst is back
	step(1100, 1200, -1)
	for q := 1; q < trimRounds; q++ {
		step(0, 1200, -1)
	}
	step(0, 1200, 0) // silence: released to nothing
	step(9, 16, -1)  // and nothing to restore
	step(90, 128, -1)
}
