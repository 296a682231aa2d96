package sim

import (
	"encoding/json"
	"fmt"
	"testing"

	"overlaynet/internal/rng"
)

// eventTracer records every tracer callback as a rendered line,
// preserving call order, so comparing two runs' event slices is a
// byte-level comparison of their entire observable histories, deferral
// counts and per-node samples included.
type eventTracer struct {
	nopTracer
	events   []string
	deferred int64
}

func (t *eventTracer) log(format string, args ...any) {
	t.events = append(t.events, fmt.Sprintf(format, args...))
}

func (t *eventTracer) RoundStart(round, alive int) {
	t.log("start r=%d alive=%d", round, alive)
}
func (t *eventTracer) RoundEnd(stats RoundStats) {
	t.log("end %+v", stats)
	t.deferred += int64(stats.Deferred)
}
func (t *eventTracer) NodeSpawned(round int, id NodeID) {
	t.log("spawn r=%d id=%d", round, id)
}

// latencyScenario drives the churn workload of churnScenario with
// inbox-order-sensitive handlers: each node folds its inbox — order and
// contents — into a rolling hash that seeds its next sends, so any
// difference in delivery order or timing changes the bytes of the work
// log and the event stream. Returns the JSON work log, the full event
// stream, and the cumulative deferral count.
func latencyScenario(shards int, lat Latency) (string, []string, int64) {
	net := NewNetwork(Config{Seed: 99, Shards: shards, Latency: lat})
	tr := &eventTracer{}
	net.SetTracer(tr)
	const n = 48
	halt := map[NodeID]bool{} // set between rounds: the node departs at its next round, sending nothing
	spawn := func(i int) {
		idx := i
		var h uint64
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			if halt[ctx.ID()] {
				return false
			}
			for j := range inbox {
				h = h*31 + uint64(inbox[j].From)*7 + uint64(inbox[j].Payload.(int))
			}
			k := int(ctx.RNG().Intn(4))
			for j := 0; j < k; j++ {
				// Some targets are dead or not yet spawned on purpose.
				ctx.Send(NodeID((idx*5+j*13)%(n+6)+1), int(h%1000)+j, 16+j)
			}
			return true
		}))
	}
	for i := 0; i < n; i++ {
		spawn(i)
	}
	for r := 0; r < 14; r++ {
		switch r {
		case 4:
			halt[5], halt[23] = true, true
		case 6:
			spawn(n + 1)
		case 9:
			halt[1] = true
			spawn(n + 3)
		}
		net.Step()
	}
	deferred := net.DeferredMessages()
	if deferred != tr.deferred {
		panic(fmt.Sprintf("DeferredMessages()=%d but tracer saw %d", deferred, tr.deferred))
	}
	net.Shutdown()
	work, err := json.Marshal(net.Work())
	if err != nil {
		panic(err)
	}
	return string(work), tr.events, deferred
}

func diffEvents(t *testing.T, label string, base, got []string) {
	t.Helper()
	if len(base) != len(got) {
		t.Fatalf("%s: event stream lengths differ: %d vs %d", label, len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Fatalf("%s: event %d differs:\n  base: %s\n  got:  %s", label, i, base[i], got[i])
		}
	}
}

// TestZeroSpreadReproducesSync is the keystone sync-equivalence
// regression: with zero latency spread and delay <= 1 round, the
// discrete-event scheduler must reproduce the synchronous kernel's work
// log and complete tracer event stream byte for byte, with zero
// deferrals.
func TestZeroSpreadReproducesSync(t *testing.T) {
	syncWork, syncEvents, _ := latencyScenario(0, Latency{})
	for _, lat := range []Latency{
		{Kind: LatencyConst, A: 1},
		{Kind: LatencyConst, A: 0.5},
		{Kind: LatencyUniform, A: 1, B: 1},
	} {
		work, events, deferred := latencyScenario(0, lat)
		label := "lat=" + lat.String()
		if deferred != 0 {
			t.Fatalf("%s: deferred %d messages, want 0", label, deferred)
		}
		if work != syncWork {
			t.Fatalf("%s: work log differs from synchronous run:\n sync: %s\n  got: %s",
				label, syncWork, work)
		}
		diffEvents(t, label, syncEvents, events)
	}
}

// TestAsyncByteIdenticalAcrossShards pins the ignored Config.Shards
// field on the calendar path (see TestWorkLogByteIdentityAcrossShards):
// with real latency spread, Shards: 8 gives the default's work log,
// event stream and deferral count.
func TestAsyncByteIdenticalAcrossShards(t *testing.T) {
	for _, lat := range []Latency{
		{Kind: LatencyUniform, A: 0.5, B: 2.5},
		{Kind: LatencyLognorm, A: 0, B: 0.6},
		{Kind: LatencyConst, A: 3},
	} {
		baseWork, baseEvents, baseDeferred := latencyScenario(0, lat)
		if baseDeferred == 0 {
			t.Fatalf("lat=%s: scenario deferred no messages; spread not exercised", lat)
		}
		work, events, deferred := latencyScenario(8, lat)
		label := "lat=" + lat.String()
		if deferred != baseDeferred || work != baseWork {
			t.Fatalf("%s: Shards: 8 changed the run (deferred %d vs %d)", label, deferred, baseDeferred)
		}
		diffEvents(t, label, baseEvents, events)
	}
}

// TestAsyncActuallyReorders: a spread configuration must not silently
// degenerate to the synchronous schedule — the event streams have to
// differ (otherwise the sweep in the AS1 experiment measures nothing).
func TestAsyncActuallyReorders(t *testing.T) {
	_, syncEvents, _ := latencyScenario(0, Latency{})
	_, asyncEvents, deferred := latencyScenario(0, Latency{Kind: LatencyUniform, A: 0.5, B: 2.5})
	if deferred == 0 {
		t.Fatal("uniform(0.5, 2.5) deferred nothing")
	}
	same := len(syncEvents) == len(asyncEvents)
	if same {
		for i := range syncEvents {
			if syncEvents[i] != asyncEvents[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("async run with spread produced the synchronous event stream")
	}
}

// TestDelayTicksProperties pins the delay hash's contract: purity,
// per-edge FIFO within a round, round-to-round redraw, and the
// [1 tick, maxDelayRounds] clamps.
func TestDelayTicksProperties(t *testing.T) {
	uni := Latency{Kind: LatencyUniform, A: 0.5, B: 2.5}
	if a, b := uni.delayTicks(7, 3, 10, 20), uni.delayTicks(7, 3, 10, 20); a != b {
		t.Fatalf("delayTicks is not pure: %d vs %d", a, b)
	}
	// All messages on one edge in one round share a delay (FIFO), but
	// across rounds and edges delays differ somewhere.
	varies := false
	for r := 0; r < 16 && !varies; r++ {
		if uni.delayTicks(7, r, 10, 20) != uni.delayTicks(7, r+1, 10, 20) {
			varies = true
		}
	}
	if !varies {
		t.Fatal("uniform delay never varies across rounds")
	}
	if got := (Latency{Kind: LatencyConst, A: 3}).delayTicks(1, 0, 1, 2); got != 3*tickScale {
		t.Fatalf("const:3 delay = %d ticks, want %d", got, 3*uint64(tickScale))
	}
	if got := (Latency{Kind: LatencyConst, A: 0}).delayTicks(1, 0, 1, 2); got != 1 {
		t.Fatalf("const:0 delay = %d ticks, want clamp to 1", got)
	}
	wild := Latency{Kind: LatencyLognorm, A: 10, B: 5}
	for r := 0; r < 64; r++ {
		if got := wild.delayTicks(1, r, uint64(r*3), uint64(r*7)); got > maxDelayRounds*tickScale {
			t.Fatalf("lognorm delay %d exceeds the %d-round clamp", got, maxDelayRounds)
		} else if got == 0 {
			t.Fatal("zero delay escaped the clamp")
		}
	}
	// Late agrees with the deadline the §5/§6 virtual-round gate uses.
	c1 := Latency{Kind: LatencyConst, A: 1}
	if c1.Late(1, 0, 1, 2) {
		t.Fatal("const:1 must never be late")
	}
	c2 := Latency{Kind: LatencyConst, A: 2}
	if !c2.Late(1, 0, 1, 2) {
		t.Fatal("const:2 must always be late")
	}
}

// TestParseLatency covers the CLI spec grammar both ways.
func TestParseLatency(t *testing.T) {
	cases := []struct {
		in   string
		want Latency
	}{
		{"", Latency{}},
		{"sync", Latency{}},
		{"const:1", Latency{Kind: LatencyConst, A: 1}},
		{"const:2.5", Latency{Kind: LatencyConst, A: 2.5}},
		{"uniform:0.5,2.5", Latency{Kind: LatencyUniform, A: 0.5, B: 2.5}},
		{"lognorm:0,0.6", Latency{Kind: LatencyLognorm, A: 0, B: 0.6}},
	}
	for _, c := range cases {
		got, err := ParseLatency(c.in)
		if err != nil {
			t.Fatalf("ParseLatency(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseLatency(%q) = %+v, want %+v", c.in, got, c.want)
		}
		if c.in != "" {
			rt, err := ParseLatency(got.String())
			if err != nil || rt != got {
				t.Fatalf("round trip of %q via %q failed: %+v, %v", c.in, got.String(), rt, err)
			}
		}
	}
	for _, bad := range []string{
		"gauss:1", "const:", "const:a", "const:-1", "uniform:2,1", "uniform:1",
		"lognorm:0,-1", "const:1,2", "uniform:0.5;2.5", "uniform:NaN,1",
	} {
		if _, err := ParseLatency(bad); err == nil {
			t.Fatalf("ParseLatency(%q) accepted invalid spec", bad)
		}
	}
}

// TestAsyncDeterministicWithFaults: event scheduler composed with the
// fault injector (drops + duplicates) reproduces itself byte for byte —
// injector decisions and delay stamps are both pure hashes.
func TestAsyncDeterministicWithFaults(t *testing.T) {
	run := func() (string, int64) {
		net := NewNetwork(Config{Seed: 5, Latency: Latency{Kind: LatencyUniform, A: 0.5, B: 2.0}})
		net.SetInjector(hashInjector{})
		const n = 32
		for i := 0; i < n; i++ {
			idx := i
			net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
				sum := 0
				for j := range inbox {
					sum += inbox[j].Payload.(int)
				}
				ctx.Send(NodeID((idx+1)%n+1), sum+idx, 16)
				ctx.Send(NodeID((idx*7)%n+1), sum^idx, 24)
				return true
			}))
		}
		net.Run(10)
		net.Shutdown()
		w, _ := json.Marshal(net.Work())
		return string(w), net.DeferredMessages()
	}
	baseWork, baseDef := run()
	if baseDef == 0 {
		t.Fatal("spread deferred nothing")
	}
	if work, def := run(); work != baseWork || def != baseDef {
		t.Fatalf("async+faults run did not reproduce itself (deferred %d vs %d)", def, baseDef)
	}
}

// hashInjector drops ~1/8 of messages and duplicates ~1/8, decided by a
// pure hash of the message identity.
type hashInjector struct{}

func (hashInjector) Deliveries(round int, from, to NodeID, seq uint64) int {
	h := rng.Mix64(uint64(round)*0x9e3779b97f4a7c15 + uint64(from)*3 + uint64(to)*5 + seq*7)
	switch h % 8 {
	case 0:
		return 0
	case 1:
		return 2
	}
	return 1
}
