package exp

import (
	"reflect"
	"testing"
)

// TestAS2ZeroSpreadPairIdentity pins AS2's control pair inside one run
// of the experiment: for both systems, the (const:1, drop 0) legacy and
// reliable rows must agree in every column except the mode label — the
// table itself demonstrates that the enabled-but-idle reliable layer is
// byte-silent, with retx = lost = 0 on the reliable side.
func TestAS2ZeroSpreadPairIdentity(t *testing.T) {
	tab := AS2ReliableDelivery(Options{Seed: 7, Quick: true})
	rows := tab.Rows()
	per := len(as2Latencies(true)) * 2 * 2 // lats × drops × modes
	if len(rows) != 2*per {
		t.Fatalf("AS2 quick table has %d rows, want %d", len(rows), 2*per)
	}
	for s := 0; s < 2; s++ {
		l, r := s*per, s*per+1
		legacy, rel := rows[l], rows[r]
		if tab.Value(l, "mode") != "legacy" || tab.Value(r, "mode") != "reliable" ||
			tab.Value(l, "latency") != as2Latencies(true)[0] || tab.Value(l, "drop") != 0.0 {
			t.Fatalf("system %v: unexpected control rows %v, %v", legacy[0], legacy, rel)
		}
		if retx, lost := num(t, tab, r, "retx"), num(t, tab, r, "lost"); retx != 0 || lost != 0 {
			t.Errorf("%v control: retx, lost = %v, %v, want 0/0", rel[0], retx, lost)
		}
		legacy[3], rel[3] = nil, nil
		if !reflect.DeepEqual(legacy, rel) {
			t.Errorf("legacy row %v but reliable row %v — idle reliable layer not silent", legacy, rel)
		}
	}
}

// TestAS2ReliableRestores is the restoration-frontier regression: on
// the wide-uniform spread (where AS1 shows both protocols broken) the
// legacy rows must be unhealthy and the reliable rows healthy, with a
// nonzero retransmit bill — the experiment's whole claim in one
// assertion.
func TestAS2ReliableRestores(t *testing.T) {
	tab := AS2ReliableDelivery(Options{Seed: 7, Quick: true})
	per := len(as2Latencies(true)) * 2 * 2
	for s := 0; s < 2; s++ {
		// Quick lats: [const:1, uniform]. Rows per system are ordered
		// (lat, drop, mode); the uniform/drop-0 pair sits at offset 4.
		l, r := s*per+4, s*per+5
		if tab.Value(l, "latency") != as2Latencies(true)[1] || tab.Value(l, "drop") != 0.0 {
			t.Fatalf("system %d: unexpected spread rows %v, %v", s, tab.Rows()[l], tab.Rows()[r])
		}
		if valueAs[bool](t, tab, l, "healthy") {
			t.Errorf("%v legacy spread row healthy, want not (sweep is vacuous)", tab.Value(l, "system"))
		}
		if !valueAs[bool](t, tab, r, "healthy") {
			t.Errorf("%v reliable spread row unhealthy — restoration failed", tab.Value(r, "system"))
		}
		if retx, lost := num(t, tab, r, "retx"), num(t, tab, r, "lost"); retx == 0 || lost != 0 {
			t.Errorf("%v reliable spread row retx=%v lost=%v, want >0 and 0", tab.Value(r, "system"), retx, lost)
		}
	}
}

// TestAS2ShardAndProcInvariance renders AS2 at different worker and
// shard counts: retransmit schedules are pure functions of the seed, so
// the tables — including the retx and lost tallies — must be
// byte-identical.
func TestAS2ShardAndProcInvariance(t *testing.T) {
	base := AS2ReliableDelivery(Options{Seed: 7, Quick: true, Procs: 1, Shards: 1}).String()
	if got := AS2ReliableDelivery(Options{Seed: 7, Quick: true, Procs: 4, Shards: 4}).String(); got != base {
		t.Fatal("AS2 table varies with -procs/OVERLAYNET_SHARDS")
	}
}
