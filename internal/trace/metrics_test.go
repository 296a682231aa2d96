package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// floodNet builds a deterministic flood workload: n nodes, each
// forwarding to its next fanout ring neighbours every round.
func floodNet(n, fanout int, tr sim.Tracer) *sim.Network {
	net := sim.NewNetwork(sim.Config{Seed: 1234})
	if tr != nil {
		net.SetTracer(tr)
	}
	flood := sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		idx := int(ctx.ID()) - 1
		for j := 1; j <= fanout; j++ {
			ctx.Send(sim.NodeID((idx+j)%n+1), "f", 64)
		}
		return true
	})
	for i := 0; i < n; i++ {
		net.SpawnHandler(sim.NodeID(i+1), flood)
	}
	return net
}

// TestRecorderMetricsConcurrent hammers one metrics-attached Recorder
// from many tracer goroutines while snapshots are taken concurrently —
// a sweep running cells on every core while the registry is read. Run
// under -race this is the data-race proof; the final totals prove no
// increment was lost to a lane collision.
func TestRecorderMetricsConcurrent(t *testing.T) {
	reg := obs.NewRegistry(4) // fewer lanes than goroutines: forced sharing
	rec := New().WithMetrics(reg)

	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := rec.Tracer("cell")
			for i := 1; i <= rounds; i++ {
				tr.RoundStart(i, 10)
				st := sim.RoundStats{Round: i, Alive: 10, Delivered: 3,
					Work: sim.RoundWork{Messages: 4}}
				st.Dropped[sim.DropDeadReceiver] = 1
				tr.RoundEnd(st)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent reader
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = rec.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	snap := reg.FlatSnapshot()
	if got := snap["overlaynet_rounds_total"]; got != workers*rounds {
		t.Errorf("rounds_total = %v, want %d", got, workers*rounds)
	}
	if got := snap["overlaynet_messages_total"]; got != workers*rounds*4 {
		t.Errorf("messages_total = %v, want %d", got, workers*rounds*4)
	}
	if got := snap["overlaynet_drops_dead_receiver_total"]; got != workers*rounds {
		t.Errorf("drops_dead_receiver_total = %v, want %d", got, workers*rounds)
	}
	if got := snap["overlaynet_round_duration_us_count"]; got != workers*rounds {
		t.Errorf("round_duration_us_count = %v, want %d", got, workers*rounds)
	}
}

// TestWallClockConfinedToDocumentedFields pins the wall-clock
// confinement contract: the *_duration_us histograms are the only
// wall-clock series the recorder exposes. Everything else — including
// the async scheduler's deferred total — must be byte-identical across
// two runs.
func TestWallClockConfinedToDocumentedFields(t *testing.T) {
	capture := func() map[string]float64 {
		rec := New()
		net := sim.NewNetwork(sim.Config{Seed: 1234,
			Latency: sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2.5}})
		net.SetTracer(rec.Tracer("confine"))
		const n, fanout = 64, 3
		h := sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
			self := int(ctx.ID()) - 1
			for j := 1; j <= fanout; j++ {
				ctx.Send(sim.NodeID((self+j)%n+1), "f", 64)
			}
			return true
		})
		for i := 0; i < n; i++ {
			net.SpawnHandler(sim.NodeID(i+1), h)
		}
		net.Run(8)
		net.Shutdown()
		snap := rec.Snapshot()
		for k := range snap {
			if strings.Contains(k, "_duration_us") {
				delete(snap, k)
			}
		}
		return snap
	}

	s1, s2 := capture(), capture()
	// The scheduler's deferral count must be present (latency spread
	// 0.5–2.5 rounds defers messages every round).
	if s1["overlaynet_async_deferred_total"] == 0 {
		t.Fatal("no deferred messages counted")
	}
	sa, _ := json.Marshal(s1)
	sb, _ := json.Marshal(s2)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("series differ beyond the *_duration_us histograms:\n%s\n%s", sa, sb)
	}
}

// TestMetricsOnlyStreamsSamples checks the n=1M enabler: with only a
// metrics registry attached (no JSONL) the streaming histograms receive
// every per-node sample of every round.
func TestMetricsOnlyStreamsSamples(t *testing.T) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg)
	net := floodNet(32, 3, rec.Tracer("m"))
	net.Run(5)
	net.Shutdown()

	snap := reg.FlatSnapshot()
	if got := snap["overlaynet_inbox_depth_count"]; got != 5*32 {
		t.Errorf("inbox_depth_count = %v, want %d (one sample per alive node per round)", got, 5*32)
	}
	if snap["overlaynet_node_bits_count"] != 5*32 {
		t.Errorf("node_bits_count = %v", snap["overlaynet_node_bits_count"])
	}
	// Steady state: every node receives fanout messages per round after
	// the pipeline fills, so the histogram p95 must be ≈3.
	if p95 := snap["overlaynet_inbox_depth_p95"]; p95 < 2 || p95 > 4 {
		t.Errorf("inbox_depth_p95 = %v, want ≈3", p95)
	}
	if got := rec.Snapshot()["overlaynet_delivered_total"]; got != 5*32*3 {
		t.Errorf("delivered = %v, want %d (spawn-time sends deliver in round 1, so every round carries full fanout)", got, 5*32*3)
	}
}

// TestJSONLCarriesMetricsLine checks that the JSONL export ends with
// the {"type":"metrics"} snapshot line, whether the recorder counts into
// a shared registry or its own.
func TestJSONLCarriesMetricsLine(t *testing.T) {
	for name, rec := range map[string]*Recorder{
		"shared": New().WithMetrics(obs.NewRegistry(0)),
		"own":    New(),
	} {
		net := floodNet(8, 1, rec.Tracer("j"))
		net.Run(3)
		net.Shutdown()

		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var metrics struct {
			Type    string             `json:"type"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &metrics); err != nil {
			t.Fatal(err)
		}
		if metrics.Type != "metrics" || metrics.Metrics["overlaynet_rounds_total"] != 3 {
			t.Fatalf("%s: last line is not the metrics snapshot: %s", name, lines[len(lines)-1])
		}
	}
}

// TestFlightRecorderBoundedAndKeepsViolations checks the two retention
// rules: the recorder's event store does not grow with the run however
// long it is (no round leaves an event), and a violation reported early
// in a long run is still exported beside the recovery reported at its end.
func TestFlightRecorderBoundedAndKeepsViolations(t *testing.T) {
	rec := New()
	net := floodNet(32, 2, rec.Tracer("long"))
	net.Run(1)
	rec.ReportViolation(audit.Violation{Invariant: "cycle-cover", Round: 1, Detail: "early"})
	net.Run(39)
	net.Shutdown()
	rec.ReportRecovery(audit.Recovery{Invariant: "cycle-cover", BrokenAt: 1, CleanAt: 40, Rounds: 39})
	if got := len(rec.Events()); got != 2 {
		t.Fatalf("a 40-round run kept %d events, want the violation and the recovery only", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"detail":"early"`) || !strings.Contains(out, `"kind":"recovery"`) {
		t.Fatalf("the early violation or the late recovery is missing from the export:\n%s", out)
	}
}

// BenchmarkStepMetricsAttached measures one steady-state flood round at
// n=1k with the full metrics pipeline attached (registry + streaming
// histograms, no event retention) — the attached half of the overhead
// pair whose detached half is sim.BenchmarkStepAllocs. CI runs it to
// keep the hot path honest; go run ./bench reports the comparison as
// trace.metrics_attached_ratio.
func BenchmarkStepMetricsAttached(b *testing.B) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg)
	net := floodNet(1000, 4, rec.Tracer("bench"))
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetWork()
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

// benchScaleFlood measures one steady-state event-driven flood round
// (the S2 workload: handler kernel, fanout 4 random targets) with the
// metrics pipeline attached or detached, at n=100k and n=1M (go run
// ./bench reports the n=20k pair as trace.metrics_attached_ratio).
func benchScaleFlood(b *testing.B, n int, attach bool) {
	net := sim.NewNetwork(sim.Config{Seed: 7, SizeHint: n})
	if attach {
		rec := New().WithMetrics(obs.NewRegistry(0))
		net.SetTracer(rec.Tracer("scale"))
	}
	idBits := sim.IDBits(n)
	h := sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		r := ctx.RNG()
		for j := 0; j < 4; j++ {
			ctx.Send(sim.NodeID(r.Intn(n)+1), nil, idBits)
		}
		return true
	})
	for v := 0; v < n; v++ {
		net.SpawnHandler(sim.NodeID(v+1), h)
	}
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ResetWork()
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

func BenchmarkScaleFlood100kDetached(b *testing.B) { benchScaleFlood(b, 100_000, false) }
func BenchmarkScaleFlood100kMetrics(b *testing.B)  { benchScaleFlood(b, 100_000, true) }
func BenchmarkScaleFlood1MDetached(b *testing.B)   { benchScaleFlood(b, 1_000_000, false) }
func BenchmarkScaleFlood1MMetrics(b *testing.B)    { benchScaleFlood(b, 1_000_000, true) }
