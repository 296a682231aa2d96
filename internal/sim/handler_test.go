package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

// churnScenario drives a network built from cfg through a workload
// that exercises every kernel path at once — fan-out sends, dead
// receivers, halts, and late spawns into recycled slots — with its
// programs as handler nodes called inline by the kernel, or as the same
// programs in blocking-coroutine form behind the adapter. Both perform
// identical randomness draws and sends. It returns the work log plus
// the tracer's view (nil tracer ⇒ nil stats).
func churnScenario(cfg Config, traced, handler bool) ([]RoundWork, *countingTracer) {
	net := NewNetwork(cfg)
	var tr *countingTracer
	if traced {
		tr = &countingTracer{}
		net.SetTracer(tr)
	}
	const n = 64
	halt := map[NodeID]bool{} // set between rounds: the node departs at its next round, sending nothing
	spawn := func(i int) {
		idx := i
		round := func(ctx *Ctx) {
			k := int(ctx.RNG().Intn(5))
			for j := 0; j < k; j++ {
				// Some targets are dead or not yet spawned on purpose.
				ctx.Send(NodeID((idx*3+j*11)%(n+8)+1), j, 16+j)
			}
		}
		if handler {
			net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
				if halt[ctx.ID()] {
					return false
				}
				round(ctx)
				return true
			}))
			return
		}
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for !halt[ctx.ID()] {
				round(ctx)
				ctx.NextRound()
			}
		})
	}
	for i := 0; i < n; i++ {
		spawn(i)
	}
	for r := 0; r < 12; r++ {
		switch r {
		case 4:
			halt[5], halt[23] = true, true
		case 5:
			spawn(n + 1)
		case 8:
			halt[1] = true
			spawn(n + 4)
		}
		net.Step()
	}
	net.Shutdown()
	return net.Work(), tr
}

// sameRun fails unless two churnScenario results are byte-identical:
// the serialized work logs and, when traced, every tracer count and
// round stat.
func sameRun(t *testing.T, label string, aw, bw []RoundWork, at, bt *countingTracer) {
	t.Helper()
	a, err := json.Marshal(aw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(bw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("%s: Work() logs differ:\n%s\n%s", label, a, b)
	}
	if at == nil {
		return
	}
	if at.drops != bt.drops {
		t.Fatalf("%s: drop counters differ: %v vs %v", label, at.drops, bt.drops)
	}
	if at.rounds != bt.rounds || at.spawns != bt.spawns {
		t.Fatalf("%s: lifecycle counters differ", label)
	}
	if !slices.Equal(at.stats, bt.stats) {
		t.Fatalf("%s: round stats differ:\n%+v\n%+v", label, at.stats, bt.stats)
	}
}

// TestWorkLogByteIdenticalAcrossModes is the execution-mode half of the
// determinism guarantee: the same programs run as event-driven handlers
// and as blocking coroutines behind the adapter must produce
// byte-identical Work() logs and tracer views.
func TestWorkLogByteIdenticalAcrossModes(t *testing.T) {
	for _, traced := range []bool{false, true} {
		adapterWork, adapterTr := churnScenario(Config{Seed: 42}, traced, false)
		handlerWork, handlerTr := churnScenario(Config{Seed: 42}, traced, true)
		sameRun(t, fmt.Sprintf("coroutine vs handler, traced=%v", traced), adapterWork, handlerWork, adapterTr, handlerTr)
	}
}

// TestLookupCacheSlotReuse guards id→slot resolution against slot
// recycling: after a receiver dies and its dense slot is
// reused by a freshly spawned node with a different id, sends to the
// dead id must be absorbed — never delivered to the slot's new
// occupant — and sends to the new id must reach it.
func TestLookupCacheSlotReuse(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})

	// Sender 1 sends to id 2 every round, and to id 3 once that node
	// exists.
	net.SpawnHandler(1, HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		ctx.Send(2, "to-dead", 8)
		ctx.Send(3, "to-new", 8)
		return true
	}))
	var victimGot, reuserGot []string
	halt := false
	net.SpawnHandler(2, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		if halt {
			return false
		}
		for _, m := range inbox {
			victimGot = append(victimGot, m.Payload.(string))
		}
		return true
	}))

	net.Step() // round 1: sends queued
	net.Step() // round 2: node 2 receives
	if len(victimGot) != 1 || victimGot[0] != "to-dead" {
		t.Fatalf("victim inbox before halt = %v", victimGot)
	}

	victimSlot := net.slotOf(2)
	halt = true
	net.Step() // node 2 absorbs its final round, then its slot is freed
	net.SpawnHandler(3, HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
		for _, m := range inbox {
			reuserGot = append(reuserGot, m.Payload.(string))
		}
		return true
	}))
	if got := net.slotOf(3); got != victimSlot {
		t.Fatalf("test premise broken: node 3 got slot %d, want recycled slot %d", got, victimSlot)
	}

	for i := 0; i < 3; i++ {
		net.Step()
	}
	net.Shutdown()

	if len(victimGot) != 1 {
		t.Fatalf("dead node received after death: %v", victimGot)
	}
	for _, p := range reuserGot {
		if p != "to-new" {
			t.Fatalf("slot reuser received a message addressed to the dead id: %v", reuserGot)
		}
	}
	if len(reuserGot) == 0 {
		t.Fatal("slot reuser received nothing; sends to the new id were lost")
	}
}

// TestShutdownFreesAdapters is the teardown leak audit: adapter
// goroutines must be released when their proc returns and at Shutdown,
// which unwinds the ones still parked. The kernel's own bookkeeping is a
// deterministic barrier — retire waits on the goroutine's done channel,
// so by the time AdapterGoroutines reports a decrement the goroutine
// has already passed its last statement. No wall-clock polling of
// runtime.NumGoroutine is needed (the old deadline-poll loop here was
// flaky on loaded CI machines and is exactly what the done-channel
// handshake replaces). A pure handler network must never create any
// adapters.
func TestShutdownFreesAdapters(t *testing.T) {
	// Pure handler network: no adapter goroutines at any point.
	hnet := NewNetwork(Config{Seed: 3})
	for i := 0; i < 100; i++ {
		hnet.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool { return true }))
	}
	hnet.Run(3)
	if got := hnet.AdapterGoroutines(); got != 0 {
		t.Fatalf("handler network reports %d adapter goroutines", got)
	}
	hnet.Shutdown()
	if got := hnet.AdapterGoroutines(); got != 0 {
		t.Fatalf("handler network reports %d adapter goroutines after Shutdown", got)
	}

	// Coroutine network: adapters appear lazily (first round), shrink as
	// procs return, and vanish at Shutdown.
	net := NewNetwork(Config{Seed: 4})
	const n = 60
	for i := 0; i < n; i++ {
		idx := i
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			rounds := 0
			for {
				ctx.Send(NodeID((idx+1)%n+1), nil, 8)
				ctx.NextRound()
				rounds++
				if idx < 20 && rounds >= 2 {
					return // first 20 procs depart on their own
				}
			}
		})
	}
	if got := net.AdapterGoroutines(); got != 0 {
		t.Fatalf("adapters exist before the first round: %d", got)
	}
	net.Step()
	if got := net.AdapterGoroutines(); got != n {
		t.Fatalf("after round 1: %d adapter goroutines, want %d", got, n)
	}
	net.Run(2) // procs 0..19 return during round 3
	if got := net.AdapterGoroutines(); got != n-20 {
		t.Fatalf("after voluntary departures: %d adapter goroutines, want %d", got, n-20)
	}
	net.Shutdown()
	if got := net.AdapterGoroutines(); got != 0 {
		t.Fatalf("after Shutdown: %d adapter goroutines, want 0", got)
	}
}

// TestAdapterRetireIsSynchronous pins the barrier property the leak
// audit relies on: the moment AdapterGoroutines drops, the departed
// procs' goroutines have completed their final handshake — their done
// channels are closed — so repeated churn cycles can assert exact
// counts with no sleeps, GC nudges, or tolerance windows.
func TestAdapterRetireIsSynchronous(t *testing.T) {
	for cycle := 0; cycle < 50; cycle++ {
		net := NewNetwork(Config{Seed: uint64(cycle + 1)})
		const n = 8
		for i := 0; i < n; i++ {
			net.Spawn(NodeID(i+1), func(ctx *Ctx) {
				ctx.NextRound() // one round, then depart
			})
		}
		net.Step()
		if got := net.AdapterGoroutines(); got != n {
			t.Fatalf("cycle %d: %d adapters after round 1, want %d", cycle, got, n)
		}
		net.Step() // every proc returns
		if got := net.AdapterGoroutines(); got != 0 {
			t.Fatalf("cycle %d: %d adapters after departures, want 0 immediately", cycle, got)
		}
		net.Shutdown()
	}
}
