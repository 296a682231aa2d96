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
