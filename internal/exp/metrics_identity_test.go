package exp

import (
	"strings"
	"sync"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
	"overlaynet/internal/obs"
	"overlaynet/internal/trace"
)

// TestTablesByteIdenticalWithMetricsAttached is the acceptance gate for
// the always-on metrics pipeline: every table must render byte-for-byte
// identically with the full observability stack attached (registry +
// kernel metrics + flight recorder) and fully detached. The drivers
// cover the ways experiments reach the simulator: sampling primitives
// (E1), the reconfiguration network (E6), a raw-kernel protocol (E14),
// and the scale sweeps (S1, S2 with its wall-clock column masked).
func TestTablesByteIdenticalWithMetricsAttached(t *testing.T) {
	drivers := map[string]func(Options) *metrics.Table{
		"E1":  E1RapidSamplingHGraph,
		"E6":  E6ReconfigChurn,
		"E14": E14PointerDoubling,
		"S1":  S1ScaleFlood,
		"S2":  func(o Options) *metrics.Table { return MaskWallClock(S2ScaleFloodEvent(o)) },
	}
	for name, run := range drivers {
		base := run(Options{Seed: 42, Quick: true}).String()
		reg := obs.NewRegistry(0)
		o := Options{Seed: 42, Quick: true, Trace: trace.New().WithMetrics(reg).FlightRecorder(42, 0.05, 1024)}
		if got := run(o).String(); got != base {
			t.Errorf("%s: table differs with metrics attached:\n--- detached\n%s\n--- attached\n%s",
				name, base, got)
		}
		// The attachment must not be a no-op either: every driver feeds
		// the registry — kernel rounds where the tracer reaches the
		// simulator (E6, S1, S2), sweep cells via the runner elsewhere
		// (E1, E14).
		snap := reg.FlatSnapshot()
		if snap["overlaynet_rounds_total"] == 0 && snap["overlaynet_cells_total"] == 0 {
			t.Errorf("%s: attached registry recorded neither rounds nor cells", name)
		}
	}
}

// TestArtifactMetricsDeterministic pins what a metrics line may be
// diffed on: the snapshot the JSONL carries is the same at any worker layout
// on every series that is not wall-clock (the *_duration_us
// histograms). Four drivers share one recorder, run one after another
// at Procs 1, Shards 1 and all at once at Procs 8, Shards 4, audited and
// faulted so the violation and drop series move. Under -race this is
// the kernel's concurrency coverage: concurrent cells, each stepping
// its own networks, tracing into one Recorder.
func TestArtifactMetricsDeterministic(t *testing.T) {
	drivers := map[string]func(Options) *metrics.Table{
		"E6": E6ReconfigChurn, "E7": E7CongestionSegments, "F1": F1FaultMatrix, "S1": S1ScaleFlood,
	}
	snapshot := func(procs, shards int) map[string]float64 {
		rec := trace.New().WithMetrics(obs.NewRegistry(0))
		var wg sync.WaitGroup
		for id, run := range drivers {
			o := Options{Seed: 42, Quick: true, Procs: procs, Shards: shards, Exp: id, Trace: rec,
				Audit: true, Faults: fault.Spec{Drop: 0.01, Dup: 0.01}}
			if procs == 1 {
				run(o)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(o)
			}()
		}
		wg.Wait()
		m := rec.Snapshot()
		for series := range m {
			if strings.Contains(series, "_duration_us") {
				delete(m, series)
			}
		}
		return m
	}
	serial, parallel := snapshot(1, 1), snapshot(8, 4)
	if serial["overlaynet_alive_nodes_count"] == 0 || serial["overlaynet_violations_total"] == 0 ||
		serial["overlaynet_epochs_total"] == 0 {
		t.Fatalf("snapshot is missing the series the run must move: %v", serial)
	}
	if len(serial) != len(parallel) {
		t.Errorf("%d series at Procs 1, Shards 1 but %d at Procs 8, Shards 4", len(serial), len(parallel))
	}
	for series, want := range serial {
		if got := parallel[series]; got != want {
			t.Errorf("%s = %v at Procs 8, Shards 4, %v at Procs 1, Shards 1", series, got, want)
		}
	}
}
