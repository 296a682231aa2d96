package exp

import (
	"strconv"
	"testing"
)

// TestR1RecoveryShardInvariant is the recovery-layer determinism
// acceptance: fault injection, audit timestamps and repair decisions
// are all functions of (seed, round, identity), so the rendered R1
// table must be byte-identical across shard counts.
func TestR1RecoveryShardInvariant(t *testing.T) {
	mk := func(shards int) string {
		return R1Recovery(Options{Seed: 42, Quick: true, Procs: 2, Shards: shards, Exp: "R1"}).String()
	}
	if a, b := mk(1), mk(8); a != b {
		t.Fatalf("R1 table differs between Shards=1 and Shards=8:\n--- shards=1\n%s\n--- shards=8\n%s", a, b)
	}
}

// TestR1RecoverySmoke: every quick-mode cell must inject at least one
// observed break episode and finish recovered with a finite MTTR —
// the headline claim of the recovery subsystem.
func TestR1RecoverySmoke(t *testing.T) {
	tbl := R1Recovery(Options{Seed: 42, Quick: true, Procs: 2, Exp: "R1"})
	rows := tbl.Rows()
	if len(rows) != 6 {
		t.Fatalf("quick R1 rendered %d rows, want 6 (3 systems × 2 scenarios):\n%s", len(rows), tbl.String())
	}
	systems := map[string]bool{}
	for _, row := range rows {
		// Columns: system, n, fault, episodes, broken@, clean@,
		// mttr (rounds), repairs, svc routing, svc sampling, recovered.
		systems[row[0]] = true
		if row[10] != "true" {
			t.Fatalf("cell did not recover: %v", row)
		}
		eps, err := strconv.Atoi(row[3])
		if err != nil || eps < 1 {
			t.Fatalf("cell observed no break episodes: %v", row)
		}
		mttr, err := strconv.Atoi(row[6])
		if err != nil || mttr < 1 {
			t.Fatalf("MTTR not a positive round count: %v", row)
		}
		broken, err1 := strconv.Atoi(row[4])
		clean, err2 := strconv.Atoi(row[5])
		if err1 != nil || err2 != nil || clean <= broken {
			t.Fatalf("clean@ must come after broken@: %v", row)
		}
	}
	for _, want := range []string{"reconfig §4", "supernode §5", "splitmerge §6"} {
		if !systems[want] {
			t.Fatalf("missing system %q in:\n%s", want, tbl.String())
		}
	}
}

// TestS6RepairCountsIndexFixes: R1's §6 repair reconciles the
// membership index before the re-balance rebuilds it, so an index desync
// it fixes counts as a repair.
func TestS6RepairCountsIndexFixes(t *testing.T) {
	nw := overlayKinds[1].build(env{}, 42, 64, -1, 0)
	defer nw.Close()
	for range nw.EpochRounds() {
		nw.step()
	}
	if nw.CorruptState(2<<8) == "" { // even: a nodeSuper index desync
		t.Fatal("corruption applied nothing")
	}
	if got := nw.repair(); got == 0 {
		t.Fatal("repair of an index desync reported no fixes")
	}
}

// TestR1DegradedService pins the closed-form degraded-service metrics
// used while the overlay is partitioned.
func TestR1DegradedService(t *testing.T) {
	// Two equal halves of 4: routable pairs 2·4·3 = 24 of 8·7 = 56.
	routing, tv := degradedService([]int{4, 4}, 8)
	if routing < 0.42 || routing > 0.43 {
		t.Fatalf("routing = %v, want 24/56", routing)
	}
	if tv != 0.5 {
		t.Fatalf("sampling proxy = %v, want 0.5", tv)
	}
	// Connected: full service.
	routing, tv = degradedService([]int{3}, 3)
	if routing != 1 || tv != 0 {
		t.Fatalf("connected service = %v, %v", routing, tv)
	}
	// Degenerate n.
	routing, tv = degradedService(nil, 1)
	if routing != 1 || tv != 0 {
		t.Fatalf("n=1 service = %v, %v", routing, tv)
	}
}
