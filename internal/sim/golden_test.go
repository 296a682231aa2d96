package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"testing"

	"overlaynet/internal/rng"
)

// The delivery transcript: everything a node program or a tracer can
// observe of the kernel's delivery, folded into one FNV-64 digest. The
// constants in TestDeliveryTranscriptGolden were re-recorded when the
// tracer's per-message and per-round hooks folded into RoundStats: on
// the kernel before that change, a tracer summing its drop, dup,
// deferred and reliability calls into the same round-end line gives
// exactly these digests. A change that moves one changed an inbox, its
// order, a work-log row, a reliability counter or a round's stats.

// Lane markers added to the payload so the transcript sees which Send
// variant produced a message without reading unexported fields.
const (
	goldenAck  = 1 << 20
	goldenRetx = 1 << 21
)

// goldenBurst is the extra fanout of a heavy round: 64 against the
// quiet rounds' average of 2, so a burst outgrows the quiet rounds
// around it thirty-fold.
const goldenBurst = 64

// goldenSealFanout and goldenGiant size the seal cases' traffic: a heavy
// round of some 45 nodes sending goldenSealFanout more each fills
// several send-log segments, and a giant sender alone sends more than a
// segment holds.
const (
	goldenSealFanout = 400
	goldenGiant      = 5000
)

// goldenLoad is a scenario's traffic beyond the quiet rounds' 0-4 sends
// per node: extra more per node in the heavy rounds, and goldenGiant
// more from every node whose id is 5 mod 16 in the giant rounds.
type goldenLoad struct {
	heavy map[int]bool
	extra int
	giant map[int]bool
}

// goldenSparse is where the scenario's ids beyond any dense table live.
const goldenSparse NodeID = 1 << 40

type goldenNode struct {
	id    NodeID
	maxID *NodeID // highest dense id spawned so far (set by the scenario loop, read-only in rounds)
	load  goldenLoad
	quit  int    // round in which OnRound returns false (0: never)
	halt  bool   // set between rounds: the next OnRound returns false before reading or sending anything
	round int    // last round this node ran
	sum   uint64 // that round's inbox digest
	seg   int    // the send-log segment that round's sends went to
	sends int    // how many it sent
}

func (g *goldenNode) OnRound(ctx *Ctx, inbox []Message) bool {
	if g.halt {
		return false
	}
	h := fnv.New64a()
	for i, m := range inbox {
		fmt.Fprintf(h, "%d:%d,%d,%d,%v;", i, m.From, m.To, m.Bits, m.Payload)
	}
	g.round, g.sum, g.seg = ctx.Round(), h.Sum64(), ctx.net.mail.cur

	r := ctx.RNG()
	k := r.Intn(5)
	if g.load.heavy[ctx.Round()] {
		k += g.load.extra
	}
	if g.load.giant[ctx.Round()] && g.id%16 == 5 {
		k += goldenGiant
	}
	g.sends = k
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
	switch rng.Mix64(uint64(round)<<48^uint64(from)<<24^uint64(to)<<8^seq) % 16 {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 3
	}
	return 1
}

// goldenTracer folds every tracer call into the digest. The round's
// samples enter it as the nearest-rank p50, p95 and max of the inbox
// sizes and of the bits.
type goldenTracer struct{ h hash.Hash64 }

func (t *goldenTracer) RoundStart(round, alive int) {
	fmt.Fprintf(t.h, "start %d %d\n", round, alive)
}
func (t *goldenTracer) RoundEnd(st RoundStats) {
	var p [6]int64 // inbox p50, p95, max; bits p50, p95, max
	for i, s := range [][]int64{st.Inbox, st.Bits} {
		if len(s) > 0 {
			s = slices.Sorted(slices.Values(s))
			p[3*i] = s[int(0.50*float64(len(s)-1))]
			p[3*i+1] = s[int(0.95*float64(len(s)-1))]
			p[3*i+2] = s[len(s)-1]
		}
	}
	fmt.Fprintf(t.h, "end {Round:%d Alive:%d Work:%+v Delivered:%d Dropped:%v DupExtra:%d Deferred:%d Reliability:%+v InboxP50:%d InboxP95:%d InboxMax:%d BitsP50:%d BitsP95:%d BitsMax:%d}\n",
		st.Round, st.Alive, st.Work, st.Delivered, st.Dropped, st.DupExtra, st.Deferred, st.Reliability,
		p[0], p[1], p[2], p[3], p[4], p[5])
}
func (t *goldenTracer) NodeSpawned(round int, id NodeID) {
	fmt.Fprintf(t.h, "spawn %d %d\n", round, id)
}

// deliveryTranscript runs the scenario: 40 nodes flooding random
// targets on all three lanes through a drop+dup injector, while the
// scenario loop halts nodes (their next OnRound returns false before
// reading or sending), lets others return false after sending, and spawns
// replacements — dense and sparse ids — into the recycled slots. The
// load adds heavy and giant rounds. It also returns what the scenario
// exercised of the kernel's buffers (which the digest cannot see).
func deliveryTranscript(lat Latency, load goldenLoad) (digest uint64, ex exercised) {
	h := fnv.New64a()
	net := NewNetwork(Config{Seed: 99, Latency: lat})
	net.SetTracer(&goldenTracer{h: h})
	net.SetInjector(goldenInjector{})
	drv := rng.New(7)
	var maxID NodeID
	var nodes []*goldenNode
	byID := map[NodeID]*goldenNode{}
	spawn := func(id NodeID, quit int) {
		g := &goldenNode{id: id, maxID: &maxID, load: load, quit: quit}
		nodes = append(nodes, g)
		byID[id] = g
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
			lo, hi := net.inRange(s)
			k += int(hi - lo)
		}
		return k
	}
	for round := 1; round <= 48; round++ {
		switch alive := net.alive(); {
		case round%5 == 2:
			for k := 0; k < 3; k++ {
				byID[alive[drv.Intn(len(alive))]].halt = true
			}
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
		_, before := net.bufferSizes()
		net.Step()
		_, after := net.bufferSizes()
		for i, c := range after {
			if c < before[i] && pending() > 0 {
				ex.releases++
			}
		}
		var last *goldenNode
		for _, g := range nodes {
			if g.round == round {
				fmt.Fprintf(h, "node %d %x\n", g.id, g.sum)
				ex.observe(last, g)
				last = g
			}
		}
		fmt.Fprintf(h, "alive %v %v %v\n", net.alive(), net.slotOf(maxID) >= 0, net.slotOf(goldenSparse+2) >= 0)
	}
	fmt.Fprintf(h, "work %+v\nrel %+v\ndeferred %d\n", net.Work(), net.ReliabilityStats(), net.DeferredMessages())
	net.Shutdown()
	return h.Sum64(), ex
}

// exercised counts what a transcript run did to the send log and the
// arena: releases of either with inboxes pending, seals (consecutive
// nodes of one round in different log segments), and senders of more
// than segLen messages in one round.
type exercised struct {
	releases, seals, giants int
}

// observe takes two nodes that ran consecutively in a round (a nil prev
// for the round's first).
func (ex *exercised) observe(prev, g *goldenNode) {
	if g.sends > segLen {
		ex.giants++
	}
	if prev != nil && prev.seg != g.seg {
		ex.seals++
	}
}

func TestDeliveryTranscriptGolden(t *testing.T) {
	// The burst cases send goldenBurst more in rounds 3-4 and 24, so the
	// kernel's buffers hold a burst's capacity through rounds whose halts
	// and spawns into recycled slots leave inboxes pending, and none may
	// be released then.
	burst := goldenLoad{heavy: map[int]bool{3: true, 4: true, 24: true}, extra: goldenBurst}
	seals := goldenLoad{heavy: map[int]bool{4: true, 5: true, 20: true}, extra: goldenSealFanout,
		giant: map[int]bool{10: true, 20: true}}
	for _, tc := range []struct {
		lat  string
		name string
		load goldenLoad
		want uint64
	}{
		{"sync", "quiet", goldenLoad{}, 0x0863dc9cdc8cbd58},
		{"const:1", "quiet", goldenLoad{}, 0x0863dc9cdc8cbd58},
		{"uniform:1,3", "quiet", goldenLoad{}, 0xd38f78f9a9f91170},
		{"sync", "burst", burst, 0xd3dddbcc96a16b05},
		{"const:1", "burst", burst, 0xd3dddbcc96a16b05},
		{"uniform:1,3", "burst", burst, 0xac814a15955c26b0},
		{"sync", "seals", seals, 0xd301f320fe8cb948},
		{"const:1", "seals", seals, 0xd301f320fe8cb948},
		{"uniform:1,3", "seals", seals, 0xcd5fd3bd1cfea534},
		{"const:2.5", "quiet", goldenLoad{}, 0x38e96cb4ba541460},
		{"const:2.5", "burst", burst, 0x4cdd6e4ec2fa8149},
		{"lognorm:1,1.5", "quiet", goldenLoad{}, 0x9f6b5f41ea762957},
		{"lognorm:1,1.5", "burst", burst, 0xbdae228fbdcc5147},
	} {
		lat, err := ParseLatency(tc.lat)
		if err != nil {
			t.Fatal(err)
		}
		got, ex := deliveryTranscript(lat, tc.load)
		if got != tc.want {
			t.Errorf("%s %s: transcript digest %#x, want %#x", tc.lat, tc.name, got, tc.want)
		}
		if ex.releases != 0 {
			t.Errorf("%s %s: %d buffers were released with inboxes pending", tc.lat, tc.name, ex.releases)
		}
		if tc.name == "seals" && (ex.seals < 3 || ex.giants == 0) {
			t.Errorf("%s %s: the log was not exercised across seals: %+v", tc.lat, tc.name, ex)
		}
	}
}
