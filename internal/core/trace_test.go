package core

import (
	"testing"

	"overlaynet/internal/trace"
)

// TestEpochSpansRecorded attaches a telemetry recorder to a
// reconfiguration network and checks that every RunEpoch emits one
// epoch span whose fields match the EpochReport, and that the
// simulator-level round counter reconciles with the per-epoch round
// totals (all simulator rounds happen inside epochs).
func TestEpochSpansRecorded(t *testing.T) {
	rec := trace.New()
	nw := NewNetwork(Config{Seed: 17, N0: 32, D: 6})
	nw.SetTrace(rec, "core-test")

	var reports []EpochReport
	rep1, _ := nw.RunEpoch(nil, nil)
	reports = append(reports, rep1)
	sponsor := nw.Members()[0]
	rep2, _ := nw.RunEpoch([]JoinSpec{{Sponsor: sponsor}}, nil)
	reports = append(reports, rep2)
	nw.Shutdown()

	var epochSpans []trace.Span
	for _, s := range rec.Spans() {
		if s.Kind == "epoch" {
			epochSpans = append(epochSpans, s)
		}
	}
	if len(epochSpans) != len(reports) {
		t.Fatalf("got %d epoch spans, want %d", len(epochSpans), len(reports))
	}
	totalRounds := 0
	for i, s := range epochSpans {
		rep := reports[i]
		if s.Scope != "core-test" {
			t.Fatalf("span %d scope = %q", i, s.Scope)
		}
		if s.Epoch != rep.Epoch || s.Rounds != rep.Rounds || s.NOld != rep.NOld || s.NNew != rep.NNew {
			t.Fatalf("span %d %+v does not match report %+v", i, s, rep)
		}
		if s.DurUS < 0 || s.StartUS < 0 {
			t.Fatalf("span %d has negative timing: %+v", i, s)
		}
		totalRounds += rep.Rounds
	}
	if rep2.NNew != rep1.NNew+1 {
		t.Fatalf("join not reflected in reports: %d -> %d", rep1.NNew, rep2.NNew)
	}

	m := rec.Snapshot()
	if got := m["overlaynet_epochs_total"]; got != float64(len(reports)) {
		t.Fatalf("epoch counter = %v, want %d", got, len(reports))
	}
	if got := m["overlaynet_rounds_total"]; got != float64(totalRounds) {
		t.Fatalf("sim rounds counter = %v, want sum of epoch rounds %d", got, totalRounds)
	}
	if m["overlaynet_messages_total"] == 0 || m["overlaynet_delivered_total"] == 0 {
		t.Fatalf("no message traffic recorded: %v", m)
	}
	// The initial members spawn in NewNetwork, before the tracer is
	// attached; only the epoch-2 joiner is counted.
	if got := m["overlaynet_spawns_total"]; got != 1 {
		t.Fatalf("spawns = %v, want 1 (the joiner)", got)
	}
}

// TestSetTraceDetach verifies that detaching the recorder stops both
// epoch spans and simulator-level counting.
func TestSetTraceDetach(t *testing.T) {
	rec := trace.New()
	nw := NewNetwork(Config{Seed: 18, N0: 32, D: 6})
	nw.SetTrace(rec, "attached")
	nw.RunEpoch(nil, nil)
	spansBefore := len(rec.Spans())
	roundsBefore := rec.Snapshot()["overlaynet_rounds_total"]

	nw.SetTrace(nil, "")
	nw.RunEpoch(nil, nil)
	nw.Shutdown()

	if n := len(rec.Spans()); n != spansBefore {
		t.Fatalf("spans grew after detach: %d -> %d", spansBefore, n)
	}
	if r := rec.Snapshot()["overlaynet_rounds_total"]; r != roundsBefore {
		t.Fatalf("round counter grew after detach: %v -> %v", roundsBefore, r)
	}
}
