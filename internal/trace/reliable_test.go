package trace

import (
	"strings"
	"testing"

	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// TestRoundReliabilityLane drives the reliability callback directly
// and checks the whole export chain: the registry series (artifact key
// names + ack-delay histogram), the flight ring's events, and the JSONL
// lines tracestats reads.
func TestRoundReliabilityLane(t *testing.T) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg).FlightRecorder(1, 1, 64)

	tr := rec.Tracer("lane-test")
	var stats sim.ReliabilityRoundStats
	stats.Retransmits = 4
	stats.Acks = 9
	stats.Failures = 2
	stats.Stale = 3
	stats.AckDelay[1] = 5 // five acks with delay in (1, 2] rounds
	tr.RoundReliability(7, stats)
	tr.RoundReliability(8, sim.ReliabilityRoundStats{Acks: 1})

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

	var lane []Event
	for _, ev := range rec.FlightEvents() {
		if ev.Kind == "reliable_round" {
			lane = append(lane, ev)
		}
	}
	if len(lane) != 2 {
		t.Fatalf("retained %d reliable_round events, want 2", len(lane))
	}
	if lane[0].Round != 7 || lane[0].Retransmits != 4 || lane[0].Acks != 9 ||
		lane[0].RelFailures != 2 || lane[0].StaleArrived != 3 {
		t.Fatalf("event fields wrong: %+v", lane[0])
	}

	// The JSONL export must carry the lane too, so tracestats can
	// ingest it from an -events file.
	var sb strings.Builder
	if err := rec.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"kind":"reliable_round"`, `"retransmits":4`, `"overlaynet_delivery_failures_total":2`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSONL export missing %s", want)
		}
	}
}
