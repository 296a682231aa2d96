package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
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
{"type":"metrics","metrics":{"overlaynet_rounds_total":40,"overlaynet_messages_total":1000,"overlaynet_delivered_total":990,"overlaynet_cells_total":2,"overlaynet_drops_dead_receiver_total":10,"overlaynet_violations_total":1,"overlaynet_recoveries_total":1,"overlaynet_mttr_rounds_sum":3,"overlaynet_async_deferred_total":7,"overlaynet_retransmits_total":120,"overlaynet_acks_total":900,"overlaynet_delivery_failures_total":2,"overlaynet_stale_deliveries_total":5,"overlaynet_inbox_depth_count":100,"overlaynet_inbox_depth_p50":3,"overlaynet_inbox_depth_p95":7,"overlaynet_inbox_depth_max":9,"overlaynet_inbox_depth_sum":320}}
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
		"dead-receiver                     10",
		"violations     1",
		"recoveries     1 closed break episodes, mean MTTR 3.0 rounds",
		"async          7 deliveries deferred past round+1",
		"reliable       120 retransmits, 900 acks",
		"2 budget-exhausted delivery failures, 5 stale envelopes discarded",
		"overlaynet_inbox_depth",
		"p50 3",
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

// TestSummaryEqualAcrossFormats records one small run that moves every
// part of the summary — a drop of every reason, a duplication, reliable
// traffic, a violation, a closed recovery episode, spans
// of every kind — exports it both ways, and requires the two summaries
// to agree on everything below the line naming the file.
func TestSummaryEqualAcrossFormats(t *testing.T) {
	rec := trace.New().RecordEvents(true)

	// Every send-side and delivery-side drop reason but the injected one.
	net := sim.NewNetwork(sim.Config{Seed: 9})
	net.SetTracer(rec.Tracer("drops"))
	idle := sim.HandlerFunc(func(*sim.Ctx, []sim.Message) bool { return true })
	net.SpawnHandler(1, sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		for to := sim.NodeID(2); to <= 4; to++ {
			ctx.Send(to, "m", 8)
		}
		return true
	}))
	net.SpawnHandler(2, idle)
	net.SpawnHandler(3, idle)
	net.SpawnHandler(4, sim.HandlerFunc(func(*sim.Ctx, []sim.Message) bool { return false }))
	net.Step()
	net.SetBlocked(map[sim.NodeID]bool{3: true})
	net.Step()
	net.SetBlocked(map[sim.NodeID]bool{1: true})
	net.Run(3)
	net.Shutdown()

	// Injected drops and duplicates under reliable endpoints with spread.
	net = sim.NewNetwork(sim.Config{Seed: 42, Latency: sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 3.5}})
	net.SetTracer(rec.Tracer("ring"))
	net.SetInjector(fault.Spec{Seed: 7, Drop: 0.2, Dup: 0.2}.Injector())
	cfg := reliable.Config{On: true, RTO: 3, Backoff: 2, Budget: 2, Stretch: 1}
	for v := 0; v < 8; v++ {
		peer := sim.NodeID((v+1)%8 + 1)
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

	rec.ReportViolation(audit.Violation{Scope: "E6/cell0", Invariant: "cycle-cover", Round: 3, Detail: "broken edge"})
	rec.ReportRecovery(audit.Recovery{Scope: "E6/cell0", Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 8, Rounds: 5})
	rec.AddSpan(trace.Span{Kind: "cell", Name: "E6", Scope: "E6", Cell: 0, StartUS: 10, DurUS: 500})
	rec.AddSpan(trace.Span{Kind: "cell", Name: "E6", Scope: "E6", Cell: 1, Worker: 1, StartUS: 20, DurUS: 700})
	rec.AddSpan(trace.Span{Kind: "epoch", Name: "E6/cell0", Scope: "E6/cell0", Epoch: 1, Rounds: 7, StartUS: 30, DurUS: 90})
	rec.AddSpan(trace.Span{Kind: "scale", Name: "S1", Scope: "S1", N: 1024, Rounds: 8, RoundsPerSec: 1234.5, BytesPerNode: 77.25, StartUS: 40, DurUS: 60})
	rec.AddSpan(trace.Span{Kind: "experiment", Name: "E6", Scope: "E6", Rows: 2, StartUS: 5, DurUS: 800})

	dir := t.TempDir()
	chrome, jsonl := filepath.Join(dir, "trace.json"), filepath.Join(dir, "events.jsonl")
	if err := rec.WriteChromeTraceFile(chrome); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONLFile(jsonl); err != nil {
		t.Fatal(err)
	}
	body := func(path string) string {
		var out, errOut strings.Builder
		if code := run([]string{path}, &out, &errOut); code != 0 {
			t.Fatalf("run(%s) = %d, stderr %q", path, code, errOut.String())
		}
		_, rest, _ := strings.Cut(out.String(), "\n")
		return rest
	}
	fromChrome, fromJSONL := body(chrome), body(jsonl)
	if fromChrome != fromJSONL {
		t.Errorf("summaries differ:\n--- trace.json\n%s--- events.jsonl\n%s", fromChrome, fromJSONL)
	}
	for _, want := range []string{
		"blocked-sender", "blocked-receiver-send-round", "blocked-receiver-delivery-round",
		"dead-receiver", "fault-injected", "dup extras", "async ", "reliable ", "budget-exhausted",
		"violations     1", "e.g. E6/cell0 round 3 [cycle-cover]: broken edge",
		"recoveries     1 closed break episodes, mean MTTR 5.0 rounds",
		"e.g. E6/cell0 [cycle-cover] broken@3 clean@8 (5 rounds)",
		"scale points   1", "overlaynet_inbox_depth", "slowest 2 cells",
	} {
		if !strings.Contains(fromJSONL, want) {
			t.Errorf("summary missing %q:\n%s", want, fromJSONL)
		}
	}
}
