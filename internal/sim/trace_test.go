package sim

import (
	"slices"
	"sync/atomic"
	"testing"
)

// nopTracer ignores every hook; the package's test tracers embed it and
// override what they observe.
type nopTracer struct{}

func (nopTracer) RoundStart(round, alive int)      {}
func (nopTracer) RoundEnd(stats RoundStats)        {}
func (nopTracer) NodeSpawned(round int, id NodeID) {}

// countingTracer tallies every hook invocation and keeps each round's
// stats (without the samples, which are scratch); it is the minimal
// Tracer used to pin the drop-reason accounting and to measure
// tracer-attached overhead in the benchmarks.
type countingTracer struct {
	rounds, spawns int
	messages       int
	drops          [NumDropReasons]int
	stats          []RoundStats
}

func (t *countingTracer) RoundStart(round, alive int) { t.rounds++ }
func (t *countingTracer) RoundEnd(stats RoundStats) {
	t.messages += stats.Work.Messages
	for r, d := range stats.Dropped {
		t.drops[r] += d
	}
	stats.Inbox, stats.Bits = nil, nil
	t.stats = append(t.stats, stats)
}
func (t *countingTracer) NodeSpawned(round int, id NodeID) { t.spawns++ }

// TestDropReasonAccounting hand-computes every drop counter in a
// scenario exercising both reasons, and reconciles them with the
// RoundWork message totals: Messages must equal deliveries into inboxes
// plus the round's drops (dead-receiver, fault-injected).
func TestDropReasonAccounting(t *testing.T) {
	net := NewNetwork(Config{Seed: 9})
	tr := &countingTracer{}
	net.SetTracer(tr)
	net.SetInjector(dropRound(3))

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

	// Round 3's sends to the live nodes 2 and 3 are dropped in transit;
	// the dead receiver is decided first, so the send to 4 stays a
	// dead-receiver drop.
	net.Run(5)

	if tr.rounds != 5 || tr.spawns != 4 {
		t.Fatalf("rounds/spawns traced: %d/%d, want 5/4", tr.rounds, tr.spawns)
	}

	wantDrops := [NumDropReasons]int{}
	wantDrops[DropFaultInjected] = 2 // round 3, sends to 2 and 3
	wantDrops[DropDeadReceiver] = 3  // rounds 2-4, sends to 4
	if tr.drops != wantDrops {
		t.Fatalf("drop counters = %v, want %v", tr.drops, wantDrops)
	}

	// Reconciliation with the work log: Messages counts every send
	// (rounds 1-4 → 3 each).
	msgs := 0
	for _, w := range net.Work() {
		msgs += w.Messages
	}
	if msgs != 12 || tr.messages != msgs {
		t.Fatalf("Messages total = %d (tracer %d), want 12", msgs, tr.messages)
	}
	delivered := msgs - tr.drops[DropDeadReceiver] - tr.drops[DropFaultInjected]
	if delivered != 7 {
		t.Fatalf("derived deliveries = %d, want 7", delivered)
	}
	// Of those 7, one went to the departing node 4 (round 1); the live
	// receivers saw the remaining 6.
	if received := int(got2.Load() + got3.Load()); received != delivered-1 {
		t.Fatalf("receivers saw %d messages, want %d", received, delivered-1)
	}

	net.Shutdown()
}

// samplingTracer is a countingTracer that also keeps copies of every
// round's samples.
type samplingTracer struct {
	countingTracer
	inbox, bits [][]int64
}

func (t *samplingTracer) RoundEnd(stats RoundStats) {
	t.inbox = append(t.inbox, slices.Clone(stats.Inbox))
	t.bits = append(t.bits, slices.Clone(stats.Bits))
	t.countingTracer.RoundEnd(stats)
}

// TestRoundStatsDistributions sanity-checks the per-round inbox/bits
// samples a tracer receives: one per alive node, inbox sizes summing to
// Delivered, and the largest bits sample matching the work log.
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
	net.Run(2)
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
	// Round 2: node 1's round-1 fan-out delivers to all 15 targets; the
	// sender's fan-out dominates bits.
	if in := tr.inbox[1]; slices.Max(in) != 1 || in[0] != 0 || in[1] != 1 || tr.stats[1].Delivered != n-1 {
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
		net.SetInjector(dropRound(2))
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
		net.Run(8)
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
	if len(net.order) != 0 || net.indexed() != 0 {
		t.Fatalf("Shutdown left state: alive=%d indexed=%d", len(net.order), net.indexed())
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
	if net.Round() != 0 || len(net.Work()) != 0 || len(net.order) != 0 {
		t.Fatalf("shutdown before step: round=%d work=%d alive=%d",
			net.Round(), len(net.Work()), len(net.order))
	}
	// Idempotent on an empty network.
	net.Shutdown()
}

// TestNilTracerSteadyStateZeroAllocs pins the acceptance criterion that
// the tracing hooks cost nothing when disabled: a steady-state flood
// round must stay at zero allocations without a tracer.
func TestNilTracerSteadyStateZeroAllocs(t *testing.T) {
	net := floodNet(256, 4)
	net.Run(2) // reach buffer steady state
	allocs := testing.AllocsPerRun(20, net.stepBounded)
	net.Shutdown()
	if allocs != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per round with nil tracer, want 0", allocs)
	}
}
