package exp

import (
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
		legacy, rel := rows[s*per], rows[s*per+1]
		if legacy[3] != "legacy" || rel[3] != "reliable" ||
			legacy[1] != "const:1" || legacy[2] != "0" {
			t.Fatalf("system %q: unexpected control rows %v, %v", legacy[0], legacy, rel)
		}
		for i := range legacy {
			if i == 3 {
				continue
			}
			if rel[i] != legacy[i] {
				t.Errorf("%s col %d: legacy=%q but reliable=%q — idle reliable layer not silent",
					legacy[0], i, legacy[i], rel[i])
			}
		}
		if rel[6] != "0" || rel[7] != "0" {
			t.Errorf("%s control: retx=%q lost=%q, want 0/0", rel[0], rel[6], rel[7])
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
	rows := tab.Rows()
	per := len(as2Latencies(true)) * 2 * 2
	for s := 0; s < 2; s++ {
		// Quick lats: [const:1, uniform]. Rows per system are ordered
		// (lat, drop, mode); the uniform/drop-0 pair sits at offset 4.
		legacy, rel := rows[s*per+4], rows[s*per+5]
		if legacy[1] != "uniform:0.5,2.5" || legacy[2] != "0" {
			t.Fatalf("system %d: unexpected spread rows %v, %v", s, legacy, rel)
		}
		if legacy[9] != "false" {
			t.Errorf("%s legacy spread row healthy=%q, want false (sweep is vacuous)", legacy[0], legacy[9])
		}
		if rel[9] != "true" {
			t.Errorf("%s reliable spread row healthy=%q, want true — restoration failed", rel[0], rel[9])
		}
		if rel[6] == "0" || rel[7] != "0" {
			t.Errorf("%s reliable spread row retx=%q lost=%q, want >0 and 0", rel[0], rel[6], rel[7])
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
