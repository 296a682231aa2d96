package exp

import (
	"testing"

	"overlaynet/internal/metrics"
	"overlaynet/internal/sim"
)

// TestAS1ZeroSpreadRowsMatchSync pins AS1's control pair inside one
// run of the experiment: for every system, the "const:1" row (event
// scheduler, zero spread) must equal the "sync" row (plain synchronous
// kernel) in every column except the latency label — the table itself
// demonstrates that the scheduler reproduces the round model exactly.
// The wide-spread row must actually defer messages on the sim-kernel
// systems, or the sweep is vacuous.
func TestAS1ZeroSpreadRowsMatchSync(t *testing.T) {
	tab := AS1AsyncLatency(Options{Seed: 7, Quick: true})
	rows := tab.Rows()
	per := len(as1Latencies(true))
	if len(rows) != 4*per {
		t.Fatalf("AS1 quick table has %d rows, want %d", len(rows), 4*per)
	}
	for s := 0; s < 4; s++ {
		sync, zero := rows[s*per], rows[s*per+1]
		if sync[1] != "sync" || zero[1] != "const:1" {
			t.Fatalf("system %q: unexpected control labels %q, %q", sync[0], sync[1], zero[1])
		}
		for i := range sync {
			if i == 1 {
				continue
			}
			if zero[i] != sync[i] {
				t.Errorf("%s col %d: sync=%q but const:1=%q — zero-spread scheduler diverges",
					sync[0], i, sync[i], zero[i])
			}
		}
	}
	// Quick lats: [sync, const:1, uniform:0.5,2.5]. Row 2 is the
	// sampling system's wide-uniform row; deferred (col 2) must be > 0.
	if rows[2][2] == "0" || rows[2][2] == "-" {
		t.Errorf("wide-spread sampling row deferred = %q, want > 0", rows[2][2])
	}
	if rows[per+2][2] == "0" || rows[per+2][2] == "-" {
		t.Errorf("wide-spread reconfig row deferred = %q, want > 0", rows[per+2][2])
	}
}

// TestAS1ShardAndProcInvariance renders AS1 at different worker and
// shard counts: the discrete-event schedule is a pure function of the
// seed, so the tables must be byte-identical.
func TestAS1ShardAndProcInvariance(t *testing.T) {
	base := AS1AsyncLatency(Options{Seed: 7, Quick: true, Procs: 1, Shards: 1}).String()
	if got := AS1AsyncLatency(Options{Seed: 7, Quick: true, Procs: 4, Shards: 4}).String(); got != base {
		t.Fatal("AS1 table varies with -procs/OVERLAYNET_SHARDS")
	}
}

// TestLatencyZeroSpreadReproducesSyncTables is the experiment-level
// sync-equivalence regression: whole tables produced with
// Options.Latency const:1 (every message delivered through the event
// calendar with delay exactly one round) must be byte-identical to the
// synchronous tables, across a sampling, a reconfiguration, and a
// scale driver.
func TestLatencyZeroSpreadReproducesSyncTables(t *testing.T) {
	zero := sim.Latency{Kind: sim.LatencyConst, A: 1}
	for _, run := range []struct {
		id string
		f  func(Options) *metrics.Table
	}{
		{"E1", E1RapidSamplingHGraph},
		{"E6", E6ReconfigChurn},
		{"S1", S1ScaleFlood},
	} {
		base := run.f(Options{Seed: 3, Quick: true, Exp: run.id}).String()
		got := run.f(Options{Seed: 3, Quick: true, Exp: run.id, Latency: zero}).String()
		if got != base {
			t.Errorf("%s: const:1 latency changed the table:\n--- sync ---\n%s--- const:1 ---\n%s", run.id, base, got)
		}
	}
}
