package trace

import (
	"strings"
	"testing"

	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// TestRoundReliabilityLane hands the tracer two rounds of reliable-layer
// activity directly and checks the export chain: the registry series
// (artifact key names + ack-delay histogram) and the JSONL metrics line
// tracestats reads, with no event for either round.
func TestRoundReliabilityLane(t *testing.T) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg)

	tr := rec.Tracer("lane-test")
	var busy sim.RoundStats
	busy.Reliability.Retransmits = 4
	busy.Reliability.Acks = 9
	busy.Reliability.Failures = 2
	busy.Reliability.Stale = 3
	busy.Reliability.AckDelay[1] = 5 // five acks with delay in (1, 2] rounds
	tr.RoundEnd(busy)
	tr.RoundEnd(sim.RoundStats{Reliability: sim.ReliabilityRoundStats{Acks: 1}})

	snap := reg.FlatSnapshot()
	for name, want := range map[string]float64{
		"overlaynet_retransmits_total":       4,
		"overlaynet_acks_total":              10,
		"overlaynet_delivery_failures_total": 2,
		"overlaynet_stale_deliveries_total":  3,
		"overlaynet_ack_delay_rounds_count":  5,
	} {
		if snap[name] != want {
			t.Errorf("metric %s = %v, want %v", name, snap[name], want)
		}
	}

	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"overlaynet_delivery_failures_total":2`) || strings.Contains(out, `"type":"event"`) {
		t.Errorf("JSONL export: want the failures series and no event line:\n%s", out)
	}
}
