package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"overlaynet/internal/sim"
)

// scenario drives a small network through every drop reason against a
// Recorder and returns the hand-computed expectations: 5 rounds, one
// kill, two node-round blocks, 9 non-blocked sends of which 3 are
// dropped before reaching an inbox.
func scenario(rec *Recorder) {
	net := sim.NewNetwork(sim.Config{Seed: 9})
	net.SetTracer(rec.Tracer("test"))
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
	net.SpawnHandler(4, sim.HandlerFunc(func(*sim.Ctx, []sim.Message) bool { return false })) // departs after round 1
	net.SpawnHandler(5, idle)

	net.Step()
	net.Kill(5)
	net.SetBlocked(map[sim.NodeID]bool{3: true})
	net.Step()
	net.SetBlocked(map[sim.NodeID]bool{1: true})
	net.Step()
	net.Run(2)
	net.Shutdown()
}

// TestRecorderCounters attaches a Recorder to the drop scenario and
// checks every aggregate counter, including the derived Delivered
// total from the reconciliation contract.
func TestRecorderCounters(t *testing.T) {
	rec := New()
	scenario(rec)
	c := rec.Counters()
	if c.Rounds != 5 || c.Spawns != 5 || c.Kills != 1 || c.Blocks != 2 {
		t.Fatalf("rounds/spawns/kills/blocks = %d/%d/%d/%d, want 5/5/1/2",
			c.Rounds, c.Spawns, c.Kills, c.Blocks)
	}
	if c.Messages != 9 {
		t.Fatalf("messages = %d, want 9", c.Messages)
	}
	wantDrops := map[string]uint64{
		sim.DropBlockedSender.String():                3,
		sim.DropBlockedReceiverSendRound.String():     1,
		sim.DropBlockedReceiverDeliveryRound.String(): 1,
		sim.DropDeadReceiver.String():                 2,
	}
	for reason, want := range wantDrops {
		if c.Drops[reason] != want {
			t.Fatalf("drops[%s] = %d, want %d", reason, c.Drops[reason], want)
		}
	}
	if c.Delivered != 6 { // 9 sends − 2 dead − 1 blocked-receiver-send-round
		t.Fatalf("delivered = %d, want 6", c.Delivered)
	}
	// The artifacts' snapshot carries the derived total under its own name.
	if got := rec.Snapshot()["overlaynet_delivered_total"]; got != 6 {
		t.Fatalf("snapshot overlaynet_delivered_total = %v, want 6", got)
	}
}

// TestRecorderEventRetention verifies that events are kept only when
// RecordEvents(true) is set, and that the retained stream contains all
// lifecycle kinds with scope labels.
func TestRecorderEventRetention(t *testing.T) {
	off := New()
	scenario(off)
	if n := len(off.Events()); n != 0 {
		t.Fatalf("events retained without RecordEvents: %d", n)
	}

	on := New().RecordEvents(true)
	scenario(on)
	evs := on.Events()
	if len(evs) == 0 {
		t.Fatal("no events retained with RecordEvents(true)")
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Scope != "test" {
			t.Fatalf("event missing scope: %+v", ev)
		}
	}
	// 5 rounds, 5 spawns, 1 kill, 2 blocks, 7 drops.
	want := map[string]int{"round_start": 5, "round_end": 5, "spawn": 5, "kill": 1, "block": 2, "drop": 7}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("event kind %q: %d, want %d (all: %v)", k, kinds[k], n, kinds)
		}
	}
}

// TestWriteJSONL checks that every emitted line parses as JSON and that
// the export ends with the metrics line.
func TestWriteJSONL(t *testing.T) {
	rec := New().RecordEvents(true)
	scenario(rec)
	rec.CellSpan("E0", 3, 42, 1, rec.Start())

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
// exported types: spans become "X" events on the documented pid layout,
// lifecycle events become "i" instants, and the metrics snapshot rides
// along under "metrics".
func TestWriteChromeTrace(t *testing.T) {
	rec := New().RecordEvents(true)
	scenario(rec)
	start := rec.Start()
	rec.CellSpan("E0", 0, 42, 2, start)
	rec.EpochSpan("E0/cell0", 1, 7, 64, 64, start)
	rec.ExperimentSpan("E0", 42, 4, start)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var f ChromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if f.Metrics["overlaynet_messages_total"] != 9 || f.Metrics["overlaynet_drops_dead_receiver_total"] != 2 {
		t.Fatalf("metrics wrong: %v", f.Metrics)
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
			if ev.Pid != chromePidSim {
				t.Fatalf("instant %q on pid %d, want %d", ev.Name, ev.Pid, chromePidSim)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 3 || instants != len(rec.Events()) {
		t.Fatalf("spans=%d instants=%d, want 3/%d", spans, instants, len(rec.Events()))
	}
}

// TestSpanKinds checks the three span constructors record the fields
// tracestats and the Chrome exporter rely on.
func TestSpanKinds(t *testing.T) {
	rec := New()
	start := rec.Start()
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
	if c := rec.Counters(); c.Cells != 1 || c.Epochs != 1 {
		t.Fatalf("cell/epoch counters = %d/%d, want 1/1", c.Cells, c.Epochs)
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
