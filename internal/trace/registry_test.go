package trace

import (
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
)

// lossyRing runs n nodes that each send their ring successor one token
// a round behind reliable endpoints, on a network with latency spread,
// drops and duplication: at stretch 1 a late copy is stale and never
// acked, so every lane of the async/reliability telemetry moves.
func lossyRing(rec *Recorder) {
	lat := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 3.5}
	net := sim.NewNetwork(sim.Config{Seed: 42, Latency: lat})
	net.SetTracer(rec.Tracer("ring"))
	net.SetInjector(fault.Spec{Seed: 7, Drop: 0.2, Dup: 0.2}.Injector())
	cfg := reliable.Config{On: true, Backoff: 2, Budget: 2, Stretch: 1}
	const n = 8
	for v := 0; v < n; v++ {
		peer := sim.NodeID((v+1)%n + 1)
		net.SpawnHandler(sim.NodeID(v+1), reliable.Wrap(42, cfg, 1, sim.HandlerFunc(
			func(ctx *sim.Ctx, _ []sim.Message) bool {
				if ctx.Round() <= 12 {
					ctx.Send(peer, "token", 32)
				}
				return true
			})))
	}
	net.Run(60)
	net.Shutdown()
}

// TestCountersMatchRegistry is the written statement of the snapshot's
// counter vocabulary. One scenario moves every counter — all five drop
// reasons, duplication, scheduler deferrals, the reliable layer's four,
// a violation, a closed recovery episode, a cell and an epoch — and each
// must be in the snapshot, non-zero, equal to its registry series. The
// one series the registry does not hold is overlaynet_delivered_total,
// derived from the others by the reconciliation contract.
func TestCountersMatchRegistry(t *testing.T) {
	rec := New()
	scenario(rec)
	lossyRing(rec)
	rec.ReportViolation(audit.Violation{Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.ReportRecovery(audit.Recovery{Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 8, Rounds: 5})
	rec.CellSpan("E0", 0, 42, 0, rec.start)
	rec.EpochSpan("E0/cell0", 1, 7, 64, 64, rec.start)

	snap, reg := rec.Snapshot(), rec.reg.FlatSnapshot()
	for _, name := range []string{
		"overlaynet_rounds_total",
		"overlaynet_messages_total",
		"overlaynet_spawns_total",
		"overlaynet_cells_total",
		"overlaynet_epochs_total",
		"overlaynet_drops_dead_receiver_total",
		"overlaynet_drops_fault_injected_total",
		"overlaynet_dup_extra_copies_total",
		"overlaynet_violations_total",
		"overlaynet_recoveries_total",
		"overlaynet_mttr_rounds_sum",
		"overlaynet_async_deferred_total",
		"overlaynet_retransmits_total",
		"overlaynet_acks_total",
		"overlaynet_delivery_failures_total",
		"overlaynet_stale_deliveries_total",
	} {
		if got, ok := reg[name]; !ok || got == 0 || snap[name] != got {
			t.Errorf("%s = %v in the registry (present %v), %v in the snapshot; want equal and non-zero",
				name, got, ok, snap[name])
		}
	}
	if _, ok := reg["overlaynet_delivered_total"]; ok || len(snap) != len(reg)+1 {
		t.Errorf("snapshot has %d series, registry %d: want the registry plus overlaynet_delivered_total", len(snap), len(reg))
	}
	want := snap["overlaynet_messages_total"] - snap["overlaynet_drops_dead_receiver_total"] -
		snap["overlaynet_drops_fault_injected_total"] + snap["overlaynet_dup_extra_copies_total"]
	if got := snap["overlaynet_delivered_total"]; got == 0 || got != want {
		t.Errorf("overlaynet_delivered_total = %v, want %v by the reconciliation contract", got, want)
	}
}
