package exp

import (
	"testing"

	"overlaynet/internal/metrics"
	"overlaynet/internal/trace"
)

// TestTablesByteIdenticalAcrossShards is the experiment-level half of
// the committee engine's determinism guarantee: rendered tables must be
// byte-for-byte identical for Shards=1 and Shards=8, with and without
// telemetry attached. Options.Shards reaches only the §5/§6 engine, so
// the drivers are one per stack: §5 (E8) and §6 (E10).
func TestTablesByteIdenticalAcrossShards(t *testing.T) {
	drivers := map[string]func(Options) *metrics.Table{
		"E8":  E8DoSConnectivity,
		"E10": E10ChurnDoS,
	}
	for name, run := range drivers {
		for _, traced := range []bool{false, true} {
			render := func(shards int) string {
				o := Options{Seed: 42, Quick: true, Shards: shards}
				if traced {
					o.Trace = trace.New()
				}
				return run(o).String()
			}
			base := render(1)
			if got := render(8); got != base {
				t.Errorf("%s (traced=%v): table differs between Shards=1 and Shards=8:\n--- Shards=1\n%s\n--- Shards=8\n%s",
					name, traced, base, got)
			}
		}
	}
}
