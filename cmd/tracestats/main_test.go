package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/trace"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodJSONL = `{"type":"span","kind":"cell","name":"E1","scope":"E1","cell":0,"start_us":10,"dur_us":500}
{"type":"span","kind":"cell","name":"E1","scope":"E1","cell":1,"start_us":520,"dur_us":700}
{"type":"event","ts_us":900,"kind":"violation","scope":"E6","round":12,"reason":"cycle-cover","detail":"broken edge"}
{"type":"event","ts_us":950,"kind":"recovery","scope":"E6","round":12,"reason":"cycle-cover","clean_round":15,"mttr_rounds":3}
{"type":"metrics","metrics":{"overlaynet_rounds_total":40,"overlaynet_messages_total":1000,"overlaynet_delivered_total":990,"overlaynet_cells_total":2,"overlaynet_spawns_total":12,"overlaynet_drops_dead_receiver_total":10,"overlaynet_drops_fault_injected_total":4,"overlaynet_dup_extra_copies_total":6,"overlaynet_violations_total":1,"overlaynet_recoveries_total":1,"overlaynet_mttr_rounds_sum":3,"overlaynet_async_deferred_total":7,"overlaynet_retransmits_total":120,"overlaynet_acks_total":900,"overlaynet_delivery_failures_total":2,"overlaynet_stale_deliveries_total":5,"overlaynet_inbox_depth_count":100,"overlaynet_inbox_depth_p50":3,"overlaynet_inbox_depth_p95":7,"overlaynet_inbox_depth_max":9,"overlaynet_inbox_depth_sum":320}}
`

func TestRunSummarizesJSONL(t *testing.T) {
	path := writeFile(t, "events.jsonl", goodJSONL)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"cell spans     2",
		"sim rounds     40",
		"1000 sent, 990 delivered",
		"lifecycle      12 spawns\n",
		"drops          14 total",
		"dead-receiver                     10",
		"fault-injected                    4",
		"dup extras     6 fault-injected extra copies",
		"violations     1",
		"e.g. E6 round 12 [cycle-cover]: broken edge",
		"recoveries     1 closed break episodes, mean MTTR 3.0 rounds",
		"e.g. E6 [cycle-cover] broken@12 clean@15 (3 rounds)",
		"async          7 deliveries deferred past round+1",
		"reliable       120 retransmits, 900 acks",
		"2 budget-exhausted delivery failures, 5 stale envelopes discarded",
		"overlaynet_inbox_depth",
		"p50 3",
		"slowest 2 cells",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFailsOnMissingFile(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{filepath.Join(t.TempDir(), "nope.jsonl")}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "tracestats:") {
		t.Errorf("stderr missing prefix: %q", errOut.String())
	}
}

func TestRunFailsOnEmptyInput(t *testing.T) {
	for _, content := range []string{"", "\n\n  \n"} {
		path := writeFile(t, "empty.jsonl", content)
		var out, errOut strings.Builder
		if code := run([]string{path}, &out, &errOut); code != 1 {
			t.Fatalf("run(%q) = %d, want 1", content, code)
		}
		if !strings.Contains(errOut.String(), "empty telemetry file") {
			t.Errorf("stderr = %q, want empty-file message", errOut.String())
		}
	}
}

func TestRunFailsOnTruncatedJSONL(t *testing.T) {
	// A stream cut mid-line is a parse error with the line number.
	path := writeFile(t, "trunc.jsonl", goodJSONL[:len(goodJSONL)-40])
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr %q)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "truncated or corrupt") {
		t.Errorf("stderr = %q, want truncation hint", errOut.String())
	}
}

func TestRunFailsOnZeroRecords(t *testing.T) {
	// Valid JSON lines, but nothing tracestats recognizes as telemetry.
	path := writeFile(t, "alien.jsonl", `{"type":"something-else"}`+"\n")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no telemetry records") {
		t.Errorf("stderr = %q, want no-records message", errOut.String())
	}
}

func TestRunUsageError(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("run() with no args = %d, want 2", code)
	}
}

// TestRunRejectsChromeTrace pins that tracestats reads one format: the
// Perfetto view carries no metrics and only part of each record, so it
// is refused as holding no telemetry records rather than summarized.
func TestRunRejectsChromeTrace(t *testing.T) {
	rec := trace.New()
	rec.ReportViolation(audit.Violation{Scope: "E6/cell0", Invariant: "cycle-cover", Round: 3, Detail: "broken edge"})
	rec.CellSpan("E6", 0, 42, 0, time.Now())
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1 (stdout %q)", code, out.String())
	}
	if !strings.Contains(errOut.String(), "no telemetry records") {
		t.Errorf("stderr = %q, want no-records message", errOut.String())
	}
}
