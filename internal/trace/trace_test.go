package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/sim"
)

// dropRound is a sim.Injector that drops every message sent in one
// round.
type dropRound int

func (d dropRound) Deliveries(round int, _, _ sim.NodeID, _ uint64) int {
	if round == int(d) {
		return 0
	}
	return 1
}

// scenario drives a small network through every drop reason against a
// Recorder, to these hand-computed expectations: 5 rounds, 5 spawns, 12
// sends of which 5 are dropped before reaching an inbox (3 to a departed
// node, 2 in transit in round 3).
func scenario(rec *Recorder) {
	net := sim.NewNetwork(sim.Config{Seed: 9})
	net.SetTracer(rec.Tracer("test"))
	net.SetInjector(dropRound(3))
	idle := sim.HandlerFunc(func(*sim.Ctx, []sim.Message) bool { return true })
	net.SpawnHandler(1, sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		if ctx.Round() > 4 {
			return false
		}
		ctx.Send(2, "m", 8)
		ctx.Send(3, "m", 8)
		ctx.Send(4, "m", 8)
		return true
	}))
	net.SpawnHandler(2, idle)
	net.SpawnHandler(3, idle)
	net.SpawnHandler(4, sim.HandlerFunc(func(*sim.Ctx, []sim.Message) bool { return false }))                 // departs after round 1
	net.SpawnHandler(5, sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool { return ctx.Round() < 2 })) // departs in round 2

	net.Run(5)
	net.Shutdown()
}

// TestRecorderCounters attaches a Recorder to the drop scenario and
// checks every aggregate counter of the snapshot, including the derived
// delivered total from the reconciliation contract.
func TestRecorderCounters(t *testing.T) {
	rec := New()
	scenario(rec)
	m := rec.Snapshot()
	for name, want := range map[string]float64{
		"overlaynet_rounds_total":   5,
		"overlaynet_spawns_total":   5,
		"overlaynet_messages_total": 12,

		"overlaynet_drops_dead_receiver_total":  3,
		"overlaynet_drops_fault_injected_total": 2,

		"overlaynet_delivered_total": 7, // 12 sends − 3 dead − 2 fault-injected
	} {
		if m[name] != want {
			t.Errorf("%s = %v, want %v", name, m[name], want)
		}
	}
}

// TestRecorderEventRetention checks what the recorder keeps as events:
// nothing of a round, and every violation and recovery report, in
// report order with its scope.
func TestRecorderEventRetention(t *testing.T) {
	rec := New()
	scenario(rec)
	if n := len(rec.Events()); n != 0 {
		t.Fatalf("a traced run left %d events", n)
	}
	rec.ReportViolation(audit.Violation{Scope: "test", Invariant: "cycle-cover", Round: 3, Detail: "early"})
	rec.ReportRecovery(audit.Recovery{Scope: "test", Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 5, Rounds: 2})
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Kind != "violation" || evs[0].Detail != "early" || evs[1].Kind != "recovery" ||
		evs[0].Scope != "test" || evs[1].Scope != "test" {
		t.Fatalf("events = %+v, want the violation then the recovery", evs)
	}
}

// TestWriteJSONL checks that every emitted line parses as JSON and that
// the export ends with the metrics line.
func TestWriteJSONL(t *testing.T) {
	rec := New()
	scenario(rec)
	rec.ReportViolation(audit.Violation{Scope: "test", Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.CellSpan("E0", 3, 42, 1, rec.start)

	var batch bytes.Buffer
	if err := rec.WriteJSONL(&batch); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(bytes.NewReader(batch.Bytes()))
	var last map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := m["type"].(string)
		types[typ]++
		last = m
	}
	if types["event"] == 0 || types["span"] != 1 || types["metrics"] != 1 || len(types) != 3 {
		t.Fatalf("line type histogram: %v", types)
	}
	if last["type"] != "metrics" {
		t.Fatalf("last line is %v, want metrics", last["type"])
	}
}

// TestWriteChromeTrace round-trips the Chrome export through its own
// types: spans become "X" events on the documented pid layout, audit
// events become "i" instants, and no metrics snapshot rides along (the
// JSONL stream carries it).
func TestWriteChromeTrace(t *testing.T) {
	rec := New()
	scenario(rec)
	rec.ReportViolation(audit.Violation{Scope: "test", Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.ReportRecovery(audit.Recovery{Scope: "test", Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 5, Rounds: 2})
	start := rec.start
	rec.CellSpan("E0", 0, 42, 2, start)
	rec.EpochSpan("E0/cell0", 1, 7, 64, 64, start)
	rec.ExperimentSpan("E0", 42, 4, start)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["metrics"]; ok {
		t.Fatal("Chrome export carries a metrics key")
	}
	var spans, instants int
	pids := map[string]int{"cell": chromePidHarness, "epoch": chromePidEpochs, "experiment": chromePidHarness}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if want := pids[ev.Cat]; ev.Pid != want {
				t.Fatalf("span cat %q on pid %d, want %d", ev.Cat, ev.Pid, want)
			}
			if ev.Dur < 1 {
				t.Fatalf("span %q has non-positive dur %d", ev.Name, ev.Dur)
			}
		case "i":
			instants++
			if ev.Pid != chromePidAudit {
				t.Fatalf("instant %q on pid %d, want %d", ev.Name, ev.Pid, chromePidAudit)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 3 || instants != 2 {
		t.Fatalf("spans=%d instants=%d, want 3/2", spans, instants)
	}
}

// exportedKinds counts the event lines of the JSONL export and the
// instants of the Chrome export by kind.
func exportedKinds(t *testing.T, rec *Recorder) (jsonl, chrome map[string]int) {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	jsonl = map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev eventLine
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "event" {
			jsonl[ev.Kind]++
		}
	}
	buf.Reset()
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	chrome = map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "i" {
			chrome[ev.Name]++
		}
	}
	return jsonl, chrome
}

// TestExportKeepsViolationsAndRecoveries: both formats carry every
// violation and recovery report of a traced run, and no other event.
func TestExportKeepsViolationsAndRecoveries(t *testing.T) {
	rec := New()
	scenario(rec)
	rec.ReportViolation(audit.Violation{Scope: "test", Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.ReportViolation(audit.Violation{Scope: "test", Invariant: "cycle-cover", Round: 4, Detail: "test"})
	rec.ReportRecovery(audit.Recovery{Scope: "test", Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 5, Rounds: 2})
	jsonl, chrome := exportedKinds(t, rec)
	want := map[string]int{"violation": 2, "recovery": 1}
	for name, kinds := range map[string]map[string]int{"JSONL": jsonl, "Chrome": chrome} {
		if !maps.Equal(kinds, want) {
			t.Errorf("%s export: events by kind %v, want %v", name, kinds, want)
		}
	}
}

// TestSpanKinds checks the three span constructors record the fields
// tracestats and the Chrome exporter rely on.
func TestSpanKinds(t *testing.T) {
	rec := New()
	start := rec.start
	rec.CellSpan("E6", 4, 99, 3, start)
	rec.EpochSpan("E6/cell4", 2, 5, 64, 70, start)
	rec.ExperimentSpan("E6", 99, 10, start)
	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	cell, epoch, expt := spans[0], spans[1], spans[2]
	if cell.Kind != "cell" || cell.Cell != 4 || cell.Seed != 99 || cell.Worker != 3 || cell.Scope != "E6" {
		t.Fatalf("cell span: %+v", cell)
	}
	if epoch.Kind != "epoch" || epoch.Epoch != 2 || epoch.Rounds != 5 || epoch.NOld != 64 || epoch.NNew != 70 {
		t.Fatalf("epoch span: %+v", epoch)
	}
	if expt.Kind != "experiment" || expt.Rows != 10 || expt.Name != "E6" {
		t.Fatalf("experiment span: %+v", expt)
	}
	if m := rec.Snapshot(); m["overlaynet_cells_total"] != 1 || m["overlaynet_epochs_total"] != 1 {
		t.Fatalf("cell/epoch counters = %v/%v, want 1/1", m["overlaynet_cells_total"], m["overlaynet_epochs_total"])
	}
}

// TestProgress exercises the ticker line rendering: counts, percentage,
// and the final summary on Close.
func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Hour) // ticker never fires; we call line directly
	p.AddCells("E1", 4)
	p.AddCells("E2", 2)
	p.CellDone("E1")
	p.CellDone("E1")
	p.CellDone("E2")
	line := p.line(false)
	for _, want := range []string{"3/6 cells", "(50%)", "E1 2/4", "E2 1/2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q missing %q", line, want)
		}
	}
	p.Close()
	if out := buf.String(); !strings.Contains(out, "progress: 3/6 cells done") {
		t.Fatalf("final line missing from %q", out)
	}
}
