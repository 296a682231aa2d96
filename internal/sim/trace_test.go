package sim

import (
	"slices"
	"sync/atomic"
	"testing"
)

// nopTracer ignores every hook; the package's test tracers embed it and
// override what they observe.
type nopTracer struct{}

func (nopTracer) RoundStart(round, alive, blocked int)                                   {}
func (nopTracer) RoundEnd(stats RoundStats)                                              {}
func (nopTracer) NodeSpawned(round int, id NodeID)                                       {}
func (nopTracer) NodeKilled(round int, id NodeID)                                        {}
func (nopTracer) NodeBlocked(round int, id NodeID)                                       {}
func (nopTracer) MessageDropped(round int, reason DropReason, from, to NodeID, bits int) {}
func (nopTracer) MessageDuplicated(round int, from, to NodeID, bits, copies int)         {}
func (nopTracer) RoundDeferred(round, deferred int)                                      {}
func (nopTracer) RoundReliability(round int, stats ReliabilityRoundStats)                {}
func (nopTracer) RoundSamples(round int, inbox, bits []int64)                            {}

// countingTracer tallies every hook invocation; it is the minimal
// Tracer used to pin the drop-reason accounting and to measure
// tracer-attached overhead in the benchmarks.
type countingTracer struct {
	nopTracer
	rounds, spawns, kills, blocks int
	messages                      int
	drops                         [NumDropReasons]int
	stats                         []RoundStats
}

func (t *countingTracer) RoundStart(round, alive, blocked int) { t.rounds++ }
func (t *countingTracer) RoundEnd(stats RoundStats) {
	t.messages += stats.Work.Messages
	t.stats = append(t.stats, stats)
}
func (t *countingTracer) NodeSpawned(round int, id NodeID) { t.spawns++ }
func (t *countingTracer) NodeKilled(round int, id NodeID)  { t.kills++ }
func (t *countingTracer) NodeBlocked(round int, id NodeID) { t.blocks++ }
func (t *countingTracer) MessageDropped(round int, reason DropReason, from, to NodeID, bits int) {
	t.drops[reason]++
}

// TestDropReasonAccounting hand-computes every drop counter in a
// scenario exercising all four reasons, and reconciles them with the
// RoundWork message totals: Messages (sends by non-blocked senders)
// must equal deliveries into inboxes plus the send-round drops
// (dead-receiver, blocked-receiver-send-round), while delivery-round
// drops are a subset of earlier deliveries.
func TestDropReasonAccounting(t *testing.T) {
	net := NewNetwork(Config{Seed: 9})
	tr := &countingTracer{}
	net.SetTracer(tr)

	// Node 1 sends to 2, 3 and 4 in rounds 1-4, then departs (during
	// round 5).
	net.Spawn(1, func(ctx *Ctx) {
		for i := 0; i < 4; i++ {
			ctx.Send(2, "m", 8)
			ctx.Send(3, "m", 8)
			ctx.Send(4, "m", 8)
			ctx.NextRound()
		}
	})
	var got2, got3 atomic.Int64
	net.Spawn(2, func(ctx *Ctx) {
		for i := 0; i < 8; i++ {
			got2.Add(int64(len(ctx.NextRound())))
		}
	})
	net.Spawn(3, func(ctx *Ctx) {
		for i := 0; i < 8; i++ {
			got3.Add(int64(len(ctx.NextRound())))
		}
	})
	// Node 4 departs after round 1: its round-1 delivery lands (it is
	// reaped only at the end of the round), every later send to it is
	// a dead-receiver drop.
	net.Spawn(4, func(ctx *Ctx) {})
	// Node 5 exists only to be killed.
	net.Spawn(5, func(ctx *Ctx) {
		for {
			ctx.NextRound()
		}
	})

	net.Step() // round 1: all three sends counted, node 4 departs
	net.Kill(5)
	// Round 2: node 3 blocked — drops its pending round-1 delivery
	// (delivery-round) and the round-2 send to it (send-round); the
	// round-2 send to 4 is a dead-receiver drop.
	net.SetBlocked(map[NodeID]bool{3: true})
	net.Step()
	// Round 3: the sender is blocked — its whole outbox (3 messages)
	// is discarded and not counted in Messages.
	net.SetBlocked(map[NodeID]bool{1: true})
	net.Step()
	// Rounds 4-5: unblocked; round-4 sends to 2 and 3 deliver in
	// round 5, the send to 4 is again dead.
	net.Run(2)

	if tr.rounds != 5 {
		t.Fatalf("rounds traced: %d, want 5", tr.rounds)
	}
	if tr.spawns != 5 || tr.kills != 1 {
		t.Fatalf("spawns/kills = %d/%d, want 5/1", tr.spawns, tr.kills)
	}
	if tr.blocks != 2 { // node 3 in round 2, node 1 in round 3
		t.Fatalf("block events: %d, want 2", tr.blocks)
	}

	wantDrops := [NumDropReasons]int{}
	wantDrops[DropBlockedSender] = 3                // round 3, whole outbox
	wantDrops[DropBlockedReceiverSendRound] = 1     // round 2, send to 3
	wantDrops[DropBlockedReceiverDeliveryRound] = 1 // round 2, pending round-1 msg to 3
	wantDrops[DropDeadReceiver] = 2                 // rounds 2 and 4, sends to 4
	if tr.drops != wantDrops {
		t.Fatalf("drop counters = %v, want %v", tr.drops, wantDrops)
	}

	// Reconciliation with the work log: Messages counts non-blocked
	// sends (rounds 1, 2, 4 → 3 each).
	msgs := 0
	for _, w := range net.Work() {
		msgs += w.Messages
	}
	if msgs != 9 || tr.messages != msgs {
		t.Fatalf("Messages total = %d (tracer %d), want 9", msgs, tr.messages)
	}
	delivered := msgs - tr.drops[DropDeadReceiver] - tr.drops[DropBlockedReceiverSendRound]
	if delivered != 6 {
		t.Fatalf("derived deliveries = %d, want 6", delivered)
	}
	// Of those 6, one went to the departing node 4 (round 1) and one
	// was discarded at node 3's blocked delivery round; the live
	// receivers saw the remaining 4.
	received := int(got2.Load() + got3.Load())
	if received != delivered-1-tr.drops[DropBlockedReceiverDeliveryRound] {
		t.Fatalf("receivers saw %d messages, want %d", received,
			delivered-1-tr.drops[DropBlockedReceiverDeliveryRound])
	}

	net.Shutdown()
}

// samplingTracer is a countingTracer that also keeps every round's
// samples.
type samplingTracer struct {
	countingTracer
	inbox, bits [][]int64
}

func (t *samplingTracer) RoundSamples(round int, inbox, bits []int64) {
	t.inbox = append(t.inbox, slices.Clone(inbox))
	t.bits = append(t.bits, slices.Clone(bits))
}

// TestRoundStatsDistributions sanity-checks the per-round inbox/bits
// samples a tracer receives: one per alive node, inbox sizes summing to
// Delivered, the largest bits sample matching the work log, and a
// blocked round reporting blocked > 0.
func TestRoundStatsDistributions(t *testing.T) {
	net := NewNetwork(Config{Seed: 11})
	tr := &samplingTracer{}
	net.SetTracer(tr)
	const n = 16
	for i := 0; i < n; i++ {
		idx := i
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for {
				// Node 1 fans out to everyone; others stay silent, so the
				// inbox and bits distributions are skewed.
				if idx == 0 {
					for j := 1; j < n; j++ {
						ctx.Send(NodeID(j+1), "x", 32)
					}
				}
				ctx.NextRound()
			}
		})
	}
	net.Step()
	net.SetBlocked(map[NodeID]bool{2: true})
	net.Step()
	net.Shutdown()

	if len(tr.stats) != 2 {
		t.Fatalf("got %d round stats, want 2", len(tr.stats))
	}
	for i, st := range tr.stats {
		if st.Round != i+1 || st.Alive != n {
			t.Fatalf("stats[%d]: round %d alive %d", i, st.Round, st.Alive)
		}
		inbox, bits := tr.inbox[i], tr.bits[i]
		if len(inbox) != n || len(bits) != n {
			t.Fatalf("stats[%d]: %d inbox and %d bits samples, want %d", i, len(inbox), len(bits), n)
		}
		var delivered int64
		for _, v := range inbox {
			delivered += v
		}
		if delivered != st.Delivered {
			t.Fatalf("stats[%d]: inbox samples sum to %d, Delivered %d", i, delivered, st.Delivered)
		}
		if m := slices.Max(bits); m != st.Work.MaxNodeBits {
			t.Fatalf("stats[%d]: max bits sample %d != Work.MaxNodeBits %d", i, m, st.Work.MaxNodeBits)
		}
		if st.Work != net.Work()[i] {
			t.Fatalf("stats[%d]: Work %+v != log %+v", i, st.Work, net.Work()[i])
		}
	}
	// Round 2: node 1's round-1 fan-out delivers to 14 of the 15
	// targets (node 2 is blocked); the sender's fan-out dominates bits.
	if tr.stats[1].Blocked != 1 {
		t.Fatalf("round 2 blocked = %d, want 1", tr.stats[1].Blocked)
	}
	if in := tr.inbox[1]; slices.Max(in) != 1 || in[0] != 0 || in[1] != 0 || tr.stats[1].Delivered != n-2 {
		t.Fatalf("round 2 inbox samples unexpected: %v (%+v)", in, tr.stats[1])
	}
}

// TestTracerDoesNotPerturbSimulation runs the same seeded network with
// and without a tracer attached and requires identical work logs — the
// observability layer must be observation only.
func TestTracerDoesNotPerturbSimulation(t *testing.T) {
	run := func(tr Tracer) []RoundWork {
		net := NewNetwork(Config{Seed: 77})
		net.SetTracer(tr)
		for i := 0; i < 32; i++ {
			idx := i
			net.Spawn(NodeID(i+1), func(ctx *Ctx) {
				for {
					k := int(ctx.RNG().Intn(4))
					for j := 0; j < k; j++ {
						ctx.Send(NodeID((idx+j+1)%32+1), j, 16)
					}
					ctx.NextRound()
				}
			})
		}
		for r := 0; r < 8; r++ {
			if r%3 == 1 {
				net.SetBlocked(map[NodeID]bool{NodeID(r + 1): true, NodeID(r + 9): true})
			}
			net.Step()
		}
		net.Shutdown()
		return net.Work()
	}
	plain := run(nil)
	traced := run(&countingTracer{})
	if len(plain) != len(traced) {
		t.Fatalf("work log lengths differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("round %d: work differs: %+v vs %+v", i, plain[i], traced[i])
		}
	}
}

// TestShutdownDoesNotPolluteAccounting is the regression test for the
// old Shutdown behavior, which ran a full Step to reap goroutines and
// thereby incremented Round() and appended a spurious RoundWork entry.
func TestShutdownDoesNotPolluteAccounting(t *testing.T) {
	net := NewNetwork(Config{Seed: 5})
	for i := 0; i < 8; i++ {
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for {
				ctx.Send(NodeID(1), "x", 8)
				ctx.NextRound()
			}
		})
	}
	net.Run(3)
	round, entries := net.Round(), len(net.Work())
	if round != 3 || entries != 3 {
		t.Fatalf("precondition: round=%d entries=%d, want 3/3", round, entries)
	}
	net.Shutdown()
	if net.Round() != round {
		t.Fatalf("Shutdown advanced Round(): %d -> %d", round, net.Round())
	}
	if len(net.Work()) != entries {
		t.Fatalf("Shutdown appended to the work log: %d -> %d entries", entries, len(net.Work()))
	}
	if net.NumAlive() != 0 || net.indexed() != 0 {
		t.Fatalf("Shutdown left state: alive=%d indexed=%d", net.NumAlive(), net.indexed())
	}
}

// TestShutdownBeforeAnyStep reaps nodes that were spawned but never
// stepped (they are parked at their initial resume point).
func TestShutdownBeforeAnyStep(t *testing.T) {
	net := NewNetwork(Config{Seed: 6})
	for i := 0; i < 4; i++ {
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for {
				ctx.NextRound()
			}
		})
	}
	net.Shutdown()
	if net.Round() != 0 || len(net.Work()) != 0 || net.NumAlive() != 0 {
		t.Fatalf("shutdown before step: round=%d work=%d alive=%d",
			net.Round(), len(net.Work()), net.NumAlive())
	}
	// Idempotent on an empty network.
	net.Shutdown()
}

// TestNilTracerSteadyStateZeroAllocs pins the acceptance criterion that
// the tracing hooks cost nothing when disabled: a steady-state flood
// round must stay at zero allocations without a tracer.
func TestNilTracerSteadyStateZeroAllocs(t *testing.T) {
	net := floodNet(256, 4)
	net.DisableWorkLog()
	net.Run(2) // reach buffer steady state
	allocs := testing.AllocsPerRun(20, func() { net.Step() })
	net.Shutdown()
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per round with nil tracer, want 0", allocs)
	}
}
