package audit_test

import (
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/trace"
)

// TestEngineRetentionCap: a checker that fires twice the cap leaves the
// cap's worth of violation events in a Recorder, while the engine's and
// the recorder's totals count every violation.
func TestEngineRetentionCap(t *testing.T) {
	const fired = 2 * audit.MaxReported
	rec := trace.New()
	e := audit.NewEngine("s", 1, 1, rec)
	e.Register("hot", func() []audit.Violation { return []audit.Violation{{}} })
	for round := 1; round <= fired; round++ {
		e.Tick(round)
	}
	if e.Count() != fired || e.CountFor("hot") != fired {
		t.Fatalf("Count %d, CountFor %d; want %d", e.Count(), e.CountFor("hot"), fired)
	}
	if got := len(rec.Events()); got != audit.MaxReported {
		t.Fatalf("recorder kept %d violation events, want the cap %d", got, audit.MaxReported)
	}
	if got := rec.Snapshot()["overlaynet_violations_total"]; got != fired {
		t.Fatalf("overlaynet_violations_total = %v, want %d", got, fired)
	}
}
