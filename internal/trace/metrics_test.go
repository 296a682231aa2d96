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
// forwarding to its next fanout ring neighbours every round, with a few
// blocked rounds to exercise the drop paths. shards sets the ignored
// sim.Config.Shards (0 everywhere but the flight-recorder pin).
func floodNet(n, fanout, shards int, tr sim.Tracer) *sim.Network {
	net := sim.NewNetwork(sim.Config{Seed: 1234, Shards: shards})
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
// the scenario of a sweep running cells on every core while the -http
// endpoint scrapes. Run under -race this is the data-race proof; the
// final totals prove no increment was lost to a lane collision.
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
				tr.RoundStart(i, 10, 1)
				tr.MessageDropped(i, sim.DropDeadReceiver, 1, 2, 64)
				tr.RoundEnd(sim.RoundStats{Round: i, Alive: 10, Delivered: 3,
					Work: sim.RoundWork{Messages: 4}})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { // concurrent scraper
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = rec.Counters()
			_ = reg.FlatSnapshot()
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
	c := rec.Counters()
	if c.Rounds != workers*rounds || c.Messages != workers*rounds*4 {
		t.Errorf("Counters view diverges: rounds %d messages %d", c.Rounds, c.Messages)
	}
}

// maskTS zeroes the wall-clock field of every event so the remainder
// can be byte-compared across runs.
func maskTS(evs []Event) []Event {
	out := make([]Event, len(evs))
	for i, ev := range evs {
		ev.TSMicros = 0
		out[i] = ev
	}
	return out
}

// TestFlightRecorderDeterministicAcrossShards runs the same seeded
// flood at the default and at the ignored Shards: 4 (kept while bench/
// sets it) with identical flight-recorder settings: the sampled event
// stream (timestamps masked) must be byte-identical — the sampling
// decision is a pure function of event identity.
func TestFlightRecorderDeterministicAcrossShards(t *testing.T) {
	capture := func(shards int) []Event {
		rec := New().FlightRecorder(99, 0.25, 4096)
		net := floodNet(64, 3, shards, rec.Tracer("flight"))
		net.Step()
		net.SetBlocked(map[sim.NodeID]bool{5: true, 9: true})
		net.Run(6)
		net.Shutdown()
		return maskTS(rec.FlightEvents())
	}
	base := capture(0)
	if len(base) == 0 {
		t.Fatal("flight recorder kept no events at rate 0.25")
	}
	// The 25% sampler must actually thin the stream: 7 rounds × 64 nodes
	// × 3 sends produce >1300 candidate events.
	if len(base) > 900 {
		t.Fatalf("flight kept %d events — sampler not thinning", len(base))
	}
	other := capture(4)
	a, _ := json.Marshal(base)
	b, _ := json.Marshal(other)
	if !bytes.Equal(a, b) {
		t.Fatalf("flight streams differ between Shards 0 (%d events) and 4 (%d events)",
			len(base), len(other))
	}
}

// TestWallClockConfinedToDocumentedFields pins the wall-clock
// confinement contract: event timestamps and the *_duration_us
// histograms are the only wall-clock values the recorder exposes.
// Everything else — including the async scheduler's sched_deferred
// events and the AsyncDeferred total — must be byte-identical across
// two runs once event timestamps are masked.
func TestWallClockConfinedToDocumentedFields(t *testing.T) {
	capture := func() ([]Event, map[string]float64) {
		rec := New().FlightRecorder(99, 0.5, 4096)
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
		return maskTS(rec.FlightEvents()), snap
	}

	f1, s1 := capture()
	f2, s2 := capture()
	// The scheduler's deferral telemetry is deterministic and must be
	// present (latency spread 0.5–2.5 rounds defers messages every round).
	deferredEvents := 0
	for _, ev := range f1 {
		if ev.Kind == "sched_deferred" {
			deferredEvents++
		}
	}
	if deferredEvents == 0 || s1["overlaynet_async_deferred_total"] == 0 {
		t.Fatalf("no sched_deferred telemetry (events %d, counter %v)", deferredEvents, s1["overlaynet_async_deferred_total"])
	}
	fa, _ := json.Marshal(f1)
	fb, _ := json.Marshal(f2)
	if !bytes.Equal(fa, fb) {
		t.Fatalf("masked flight streams differ between runs (%d vs %d events)", len(f1), len(f2))
	}
	sa, _ := json.Marshal(s1)
	sb, _ := json.Marshal(s2)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("series differ beyond the *_duration_us histograms:\n%s\n%s", sa, sb)
	}
}

// TestFlightRecorderBoundedAndKeepsViolations checks the two retention
// rules: the ring never exceeds its capacity however long the run, and
// violation/recovery reports always enter it regardless of the sample
// rate.
func TestFlightRecorderBoundedAndKeepsViolations(t *testing.T) {
	rec := New().FlightRecorder(7, 0, 32) // rate 0: only always-keep kinds survive
	net := floodNet(32, 2, 0, rec.Tracer("ring"))
	net.Run(20)
	net.Shutdown()
	rec.ReportViolation(audit.Violation{Invariant: "cycle-cover", Round: 3, Detail: "test"})
	rec.ReportRecovery(audit.Recovery{Invariant: "cycle-cover", BrokenAt: 3, CleanAt: 5, Rounds: 2})

	evs := rec.FlightEvents()
	if len(evs) > 32 {
		t.Fatalf("flight ring holds %d events, capacity 32", len(evs))
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
	}
	if kinds["violation"] != 1 || kinds["recovery"] != 1 {
		t.Fatalf("violation/recovery not retained at rate 0: %v", kinds)
	}
	for k := range kinds {
		if k != "violation" && k != "recovery" {
			t.Fatalf("rate-0 flight ring retained sampled kind %q", k)
		}
	}

	// At rate 1 a long run must still respect the bound (overwrite, not
	// grow): 32 spawns + 40 round_start + 40 round_end > 64.
	full := New().FlightRecorder(7, 1, 64)
	net = floodNet(32, 2, 0, full.Tracer("ring"))
	net.Run(40)
	net.Shutdown()
	if got := len(full.FlightEvents()); got != 64 {
		t.Fatalf("rate-1 flight ring holds %d events, want exactly capacity 64", got)
	}
}

// TestMetricsOnlySkipsExactPercentiles checks the n=1M enabler: with
// only a metrics registry attached (no event retention, no JSONL) the
// kernel skips the per-round percentile sort — round_end carries
// Delivered but zero percentiles — while the streaming histograms
// receive every sample.
func TestMetricsOnlySkipsExactPercentiles(t *testing.T) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg)
	net := floodNet(32, 3, 0, rec.Tracer("m"))
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
	if c := rec.Counters(); c.Delivered != 5*32*3 {
		t.Errorf("delivered = %d, want %d (spawn-time sends deliver in round 1, so every round carries full fanout)", c.Delivered, 5*32*3)
	}

	// With full event retention the exact percentiles come back.
	recFull := New().RecordEvents(true)
	net = floodNet(32, 3, 0, recFull.Tracer("e"))
	net.Run(5)
	net.Shutdown()
	sawExact := false
	for _, ev := range recFull.Events() {
		if ev.Kind == "round_end" && ev.Stats != nil && ev.Stats.InboxP95 > 0 {
			sawExact = true
		}
	}
	if !sawExact {
		t.Error("event mode lost its exact round percentiles")
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
		net := floodNet(8, 1, 0, rec.Tracer("j"))
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

// BenchmarkStepMetricsAttached measures one steady-state flood round at
// n=1k with the full metrics pipeline attached (registry + streaming
// histograms, no event retention) — the attached half of the overhead
// pair whose detached half is sim.BenchmarkStepAllocs. CI runs it to
// keep the hot path honest; go run ./bench reports the comparison as
// trace.metrics_attached_ratio.
func BenchmarkStepMetricsAttached(b *testing.B) {
	reg := obs.NewRegistry(0)
	rec := New().WithMetrics(reg)
	net := floodNet(1000, 4, 0, rec.Tracer("bench"))
	net.DisableWorkLog()
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
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
	net.DisableWorkLog()
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

func BenchmarkScaleFlood100kDetached(b *testing.B) { benchScaleFlood(b, 100_000, false) }
func BenchmarkScaleFlood100kMetrics(b *testing.B)  { benchScaleFlood(b, 100_000, true) }
func BenchmarkScaleFlood1MDetached(b *testing.B)   { benchScaleFlood(b, 1_000_000, false) }
func BenchmarkScaleFlood1MMetrics(b *testing.B)    { benchScaleFlood(b, 1_000_000, true) }
