package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"overlaynet/internal/rng"
)

// The delivery transcript: everything a node program or a tracer can
// observe of the kernel's delivery, folded into one FNV-64 digest. The
// constants in TestDeliveryTranscriptGolden were recorded at PR 14
// (f9f5c7c), before the send step became a counting sort; a change that
// moves one changed an inbox, its order, a work-log row, a reliability
// counter or a tracer event. The burst cases' constants are younger:
// they were recorded before the kernel had a buffer release rule.

// Lane markers added to the payload so the transcript sees which Send
// variant produced a message without reading unexported fields.
const (
	goldenAck  = 1 << 20
	goldenRetx = 1 << 21
)

// goldenBurst is the extra fanout of a heavy round: 64 against the
// quiet rounds' average of 2, so a burst outgrows the quiet rounds
// around it by more than the factor the buffer release rule waits for.
const goldenBurst = 64

// goldenSparse is where the scenario's ids beyond any dense table live.
const goldenSparse NodeID = 1 << 40

type goldenNode struct {
	id    NodeID
	maxID *NodeID      // highest dense id spawned so far (driver-owned, read-only in rounds)
	heavy map[int]bool // rounds in which the node sends goldenBurst more messages
	quit  int          // round in which OnRound returns false (0: never)
	round int          // last round this node ran
	sum   uint64       // that round's inbox digest
}

func (g *goldenNode) OnRound(ctx *Ctx, inbox []Message) bool {
	h := fnv.New64a()
	for i, m := range inbox {
		fmt.Fprintf(h, "%d:%d,%d,%d,%v;", i, m.From, m.To, m.Bits, m.Payload)
	}
	g.round, g.sum = ctx.Round(), h.Sum64()

	r := ctx.RNG()
	k := r.Intn(5)
	if g.heavy[ctx.Round()] {
		k += goldenBurst
	}
	for j := 0; j < k; j++ {
		// Targets cover live ids, departed ids, ids not yet spawned and the
		// sparse range.
		to := NodeID(r.Intn(int(*g.maxID)+4) + 1)
		if r.Intn(8) == 0 {
			to = goldenSparse + NodeID(r.Intn(4))
		}
		payload, bits := ctx.Round()*100+j, 8+r.Intn(24)
		switch r.Intn(8) {
		case 0:
			ctx.SendAck(to, payload+goldenAck, bits)
		case 1:
			ctx.SendRetransmit(to, payload+goldenRetx, bits)
		default:
			ctx.Send(to, payload, bits)
		}
	}
	switch r.Intn(16) {
	case 0:
		ctx.ReportDeliveryFailure()
	case 1:
		ctx.ReportStaleDelivery()
	case 2:
		ctx.ObserveAckDelay(1 + r.Intn(40))
	}
	return ctx.Round() != g.quit
}

// goldenInjector delivers 0, 2 or 3 copies of one message in sixteen
// each, by a pure hash of the message identity.
type goldenInjector struct{}

func (goldenInjector) Deliveries(round int, from, to NodeID, seq uint64) int {
	switch latMix(uint64(round)<<48^uint64(from)<<24^uint64(to)<<8^seq) % 16 {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 3
	}
	return 1
}

// goldenTracer folds every deterministic tracer call into the digest
// (it does not implement ShardObserver: wall times are not transcript).
type goldenTracer struct{ h hash.Hash64 }

func (t goldenTracer) RoundStart(round, alive, blocked int) {
	fmt.Fprintf(t.h, "start %d %d %d\n", round, alive, blocked)
}
func (t goldenTracer) RoundEnd(stats RoundStats)        { fmt.Fprintf(t.h, "end %+v\n", stats) }
func (t goldenTracer) NodeSpawned(round int, id NodeID) { fmt.Fprintf(t.h, "spawn %d %d\n", round, id) }
func (t goldenTracer) NodeKilled(round int, id NodeID)  { fmt.Fprintf(t.h, "kill %d %d\n", round, id) }
func (t goldenTracer) NodeBlocked(round int, id NodeID) {
	fmt.Fprintf(t.h, "blocked %d %d\n", round, id)
}
func (t goldenTracer) MessageDropped(round int, reason DropReason, from, to NodeID, bits int) {
	fmt.Fprintf(t.h, "drop %d %v %d %d %d\n", round, reason, from, to, bits)
}
func (t goldenTracer) MessageDuplicated(round int, from, to NodeID, bits, copies int) {
	fmt.Fprintf(t.h, "dup %d %d %d %d %d\n", round, from, to, bits, copies)
}
func (t goldenTracer) RoundDeferred(round, deferred int) {
	fmt.Fprintf(t.h, "deferred %d %d\n", round, deferred)
}
func (t goldenTracer) RoundReliability(round int, stats ReliabilityRoundStats) {
	fmt.Fprintf(t.h, "rel %d %+v\n", round, stats)
}

// deliveryTranscript runs the scenario: 40 nodes flooding random
// targets on all three lanes through a drop+dup injector, while the
// driver blocks a random sixth of the nodes in overlapping two-round
// windows (so both halves of the blocking rule hit senders and
// receivers), kills nodes, lets others return false, and spawns
// replacements — dense and sparse ids — into the recycled slots. Every
// node sends goldenBurst more messages in the heavy rounds. It also
// returns how many times a send log or inbox arena lost capacity at the
// end of a round that left inboxes pending.
func deliveryTranscript(lat Latency, shards int, heavy map[int]bool) (digest uint64, releases int) {
	h := fnv.New64a()
	net := NewNetwork(Config{Seed: 99, Shards: shards, Latency: lat})
	net.SetTracer(goldenTracer{h})
	net.SetInjector(goldenInjector{})
	drv := rng.New(7)
	var maxID NodeID
	var nodes []*goldenNode
	spawn := func(id NodeID, quit int) {
		g := &goldenNode{id: id, maxID: &maxID, heavy: heavy, quit: quit}
		nodes = append(nodes, g)
		net.SpawnHandler(id, g)
	}
	spawnDense := func(quit int) {
		maxID++
		spawn(maxID, quit)
	}
	for i := 0; i < 40; i++ {
		quit := 0
		if i%9 == 4 {
			quit = 3 + i/2
		}
		spawnDense(quit)
	}
	spawn(goldenSparse+1, 0)
	pending := func() (k int) {
		for _, s := range net.order {
			st := &net.slots[s]
			k += int(st.inHi - st.inLo)
		}
		return k
	}
	prev := map[NodeID]bool{}
	for round := 1; round <= 48; round++ {
		alive := net.Alive()
		switch {
		case round%5 == 2:
			for k := 0; k < 3; k++ {
				net.Kill(alive[drv.Intn(len(alive))])
			}
			net.Kill(NodeID(1000)) // never existed
		case round%5 == 4:
			for k := 0; k < 4; k++ {
				spawnDense(0)
			}
			if round == 14 {
				spawn(goldenSparse+2, 30)
			}
			if round == 24 {
				spawn(goldenSparse, 0)
			}
		}
		// Blocked set: a fresh random sixth, plus the even half of last
		// round's fresh set for a second round.
		cur, fresh := map[NodeID]bool{}, map[NodeID]bool{}
		if round%3 != 0 {
			for _, id := range alive {
				if drv.Intn(6) == 0 {
					cur[id], fresh[id] = true, true
				}
			}
		}
		for id := range prev {
			if id%2 == 0 {
				cur[id] = true
			}
		}
		cur[NodeID(2000)] = true // not a node: ignored
		if !cur[alive[0]] {
			cur[alive[0]] = false // explicit false: ignored
		}
		net.SetBlocked(cur)
		prev = fresh
		_, before := net.bufferSizes()
		net.Step()
		_, after := net.bufferSizes()
		for i, c := range after {
			if c < before[i] && pending() > 0 {
				releases++
			}
		}
		for _, g := range nodes {
			if g.round == round {
				fmt.Fprintf(h, "node %d %x\n", g.id, g.sum)
			}
		}
		fmt.Fprintf(h, "alive %v %v %v\n", net.Alive(), net.Exists(maxID), net.Exists(goldenSparse+2))
	}
	fmt.Fprintf(h, "work %+v\nrel %+v\ndeferred %d\n", net.Work(), net.ReliabilityStats(), net.DeferredMessages())
	net.Shutdown()
	return h.Sum64(), releases
}

func TestDeliveryTranscriptGolden(t *testing.T) {
	// The burst cases send goldenBurst more in rounds 3-4 and 24, so the
	// synchronous kernel's buffers are released at the end of rounds
	// whose kills, spawns into recycled slots and blocking leave inboxes
	// pending, and regrown by the second burst. Their constants were
	// recorded before the kernel had a release rule.
	burst := map[int]bool{3: true, 4: true, 24: true}
	for _, tc := range []struct {
		lat   string
		heavy map[int]bool
		want  uint64
	}{
		{"sync", nil, 0x6e29a862655714ce},
		{"const:1", nil, 0x6e29a862655714ce},
		{"uniform:1,3", nil, 0x8acffbb233d2c383},
		{"sync", burst, 0xb904ac080e3a8c2d},
		{"const:1", burst, 0xb904ac080e3a8c2d},
		{"uniform:1,3", burst, 0x045f5df5f74c41ed},
	} {
		lat, err := ParseLatency(tc.lat)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			got, releases := deliveryTranscript(lat, shards, tc.heavy)
			if got != tc.want {
				t.Errorf("%s burst=%v shards=%d: transcript digest %#x, want %#x", tc.lat, tc.heavy != nil, shards, got, tc.want)
			}
			if tc.heavy != nil && !lat.Enabled() && releases == 0 {
				t.Errorf("%s shards=%d: no buffer was released with inboxes pending", tc.lat, shards)
			}
		}
	}
}
