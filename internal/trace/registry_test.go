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
	cfg := reliable.Config{On: true, RTO: 3, Backoff: 2, Budget: 2, Stretch: 1}
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

// TestCountersMatchRegistry is the written statement of the Counters
// view: which registry series each field reads. One scenario moves every
// counter — all five drop reasons, duplication, scheduler deferrals, the
// reliable layer's four, a violation, a closed recovery episode, a cell
// and an epoch — and every field must equal its series.
func TestCountersMatchRegistry(t *testing.T) {
	rec := New()
	scenario(rec)
	lossyRing(rec)
	rec.ReportViolation(audit.Violation{Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.ReportRecovery(audit.Recovery{Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 8, Rounds: 5})
	rec.CellSpan("E0", 0, 42, 0, rec.Start())
	rec.EpochSpan("E0/cell0", 1, 7, 64, 64, rec.Start())

	c := rec.Counters()
	snap := rec.Snapshot()
	for _, p := range []struct {
		series string
		field  uint64
	}{
		{"overlaynet_rounds_total", c.Rounds},
		{"overlaynet_messages_total", c.Messages},
		{"overlaynet_spawns_total", c.Spawns},
		{"overlaynet_kills_total", c.Kills},
		{"overlaynet_blocks_total", c.Blocks},
		{"overlaynet_cells_total", c.Cells},
		{"overlaynet_epochs_total", c.Epochs},
		{"overlaynet_drops_blocked_sender_total", c.Drops["blocked-sender"]},
		{"overlaynet_drops_blocked_receiver_send_round_total", c.Drops["blocked-receiver-send-round"]},
		{"overlaynet_drops_blocked_receiver_delivery_round_total", c.Drops["blocked-receiver-delivery-round"]},
		{"overlaynet_drops_dead_receiver_total", c.Drops["dead-receiver"]},
		{"overlaynet_drops_fault_injected_total", c.Drops["fault-injected"]},
		{"overlaynet_dup_extra_copies_total", c.DupExtraCopies},
		{"overlaynet_violations_total", c.Violations},
		{"overlaynet_recoveries_total", c.Recoveries},
		{"overlaynet_mttr_rounds_sum", c.RecoveryRounds},
		{"overlaynet_async_deferred_total", c.AsyncDeferred},
		{"overlaynet_retransmits_total", c.Retransmits},
		{"overlaynet_acks_total", c.Acks},
		{"overlaynet_delivery_failures_total", c.DeliveryFailures},
		{"overlaynet_stale_deliveries_total", c.StaleDeliveries},
	} {
		got, ok := snap[p.series]
		if !ok {
			t.Errorf("no series %s in the registry", p.series)
		} else if p.field == 0 || float64(p.field) != got {
			t.Errorf("%s = %v, Counters field = %d (want equal and non-zero)", p.series, got, p.field)
		}
	}
	if len(c.Drops) != int(sim.NumDropReasons) {
		t.Errorf("Drops has %d reasons, want %d", len(c.Drops), sim.NumDropReasons)
	}
	want := c.Messages - c.Drops["dead-receiver"] - c.Drops["blocked-receiver-send-round"] -
		c.Drops["fault-injected"] + c.DupExtraCopies
	if c.Delivered != want {
		t.Errorf("Delivered = %d, want %d by the reconciliation contract", c.Delivered, want)
	}
}
