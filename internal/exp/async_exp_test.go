package exp

import (
	"reflect"
	"testing"
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
	lats := as1Latencies(true)
	per := len(lats)
	if len(rows) != 4*per {
		t.Fatalf("AS1 quick table has %d rows, want %d", len(rows), 4*per)
	}
	for s := 0; s < 4; s++ {
		sync, zero := rows[s*per], rows[s*per+1]
		if tab.Value(s*per, "latency") != lats[0] || tab.Value(s*per+1, "latency") != lats[1] {
			t.Fatalf("system %v: unexpected control latencies %v, %v", sync[0], sync[1], zero[1])
		}
		sync[1], zero[1] = nil, nil
		if !reflect.DeepEqual(sync, zero) {
			t.Errorf("sync row %v but const:1 row %v — zero-spread scheduler diverges", sync, zero)
		}
	}
	// Quick lats: [sync, const:1, uniform:0.5,2.5]. Row 2 is the
	// sampling system's wide-uniform row, row per+2 the reconfiguration's.
	for _, i := range []int{2, per + 2} {
		if d := num(t, tab, i, "deferred"); d <= 0 {
			t.Errorf("wide-spread %v row deferred = %v, want > 0", rows[i][0], d)
		}
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
