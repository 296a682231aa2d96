package churn

import (
	"slices"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/core"
	"overlaynet/internal/rng"
	"overlaynet/internal/trace"
)

// newNet builds a §4 network with the invariant-audit engine attached,
// checked every epoch; the test fails if it ever reports a violation.
func newNet(t *testing.T, seed uint64, n int) *core.Network {
	t.Helper()
	nw := core.NewNetwork(core.Config{Seed: seed, N0: n, D: 6})
	rec := trace.New()
	eng := audit.NewEngine("test", seed, 1, rec)
	nw.SetAudit(eng)
	t.Cleanup(func() {
		nw.Shutdown()
		if eng.Count() != 0 {
			t.Errorf("%d audit violations: %+v", eng.Count(), rec.Events())
		}
	})
	return nw
}

// checkReports asserts what Theorems 4 and 5 guarantee of every epoch
// under churn: valid and connected, and every protocol failure an
// Algorithm 1 sampling refusal, which Theorem 2 allows with small
// probability. (Zero failures is not guaranteed: over network seeds
// 1–100 it failed at 9–20 seeds per adversary, this at none.)
func checkReports(t *testing.T, reports []core.EpochReport, name string) {
	t.Helper()
	for i, rep := range reports {
		if !rep.Valid || !rep.Connected || rep.Failures != rep.FailureKinds[core.FailSampling] {
			t.Fatalf("%s epoch %d: valid=%v connected=%v failures=%d (%v)",
				name, i, rep.Valid, rep.Connected, rep.Failures, rep.FailureKinds)
		}
	}
}

func TestReplaceAdversary(t *testing.T) {
	nw := newNet(t, 1, 48)
	adv := &Replace{Fraction: 0.25, R: rng.New(10)}
	reports := Run(nw, adv, 5)
	checkReports(t, reports, "replace")
	for i, rep := range reports {
		if rep.NNew != 48 {
			t.Fatalf("epoch %d: size drifted to %d", i, rep.NNew)
		}
	}
}

func TestReplaceFullTurnover(t *testing.T) {
	// After 1/fraction epochs with fraction 0.5 the membership should
	// have turned over substantially: few original ids remain.
	nw := newNet(t, 2, 32)
	adv := &Replace{Fraction: 0.5, R: rng.New(11)}
	reports := Run(nw, adv, 6)
	checkReports(t, reports, "replace-heavy")
	orig := 0
	for _, m := range nw.Members() {
		if m < 32 {
			orig++
		}
	}
	if orig > 8 {
		t.Fatalf("after 6 half-replacement epochs %d of 32 original ids remain", orig)
	}
}

func TestTargetOldestAdversary(t *testing.T) {
	nw := newNet(t, 4, 40)
	adv := &TargetOldest{Fraction: 0.3, R: rng.New(13)}
	reports := Run(nw, adv, 4)
	checkReports(t, reports, "oldest")
	// The oldest original ids must be gone.
	for _, m := range nw.Members() {
		if m < 12 {
			t.Fatalf("oldest id %d survived 4 targeted epochs", m)
		}
	}
}

func TestTargetNeighborhoodAdversary(t *testing.T) {
	// The strongest omniscient churn attack: remove entire current
	// neighborhoods. Theorem 5: connectivity still holds because the
	// topology is resampled before departures take effect.
	nw := newNet(t, 5, 48)
	adv := &TargetNeighborhood{Fraction: 0.25, R: rng.New(14)}
	reports := Run(nw, adv, 5)
	checkReports(t, reports, "neighborhood")
}

// TestTargetNeighborhoodSkipsDeparted: after an epoch under message
// faults core.NeighborsOf can name ids that are gone, and id 0 for a
// pointer never set. Plan must prescribe members only, and must plan
// exactly what it would on a view that had filtered them out itself
// (same draws, same order).
func TestTargetNeighborhoodSkipsDeparted(t *testing.T) {
	members := make([]int, 40)
	for i := range members {
		members[i] = 100 + i
	}
	ring := func(id int) []int {
		i := id - 100
		return []int{members[(i+39)%40], members[(i+1)%40], members[(i+7)%40]}
	}
	dirty := View{Members: members, Neighbors: func(id int) []int {
		return append([]int{0, 7}, append(ring(id), 99, 0)...)
	}}
	clean := View{Members: members, Neighbors: ring}
	joins, leaves := (&TargetNeighborhood{Fraction: 0.25, R: rng.New(3)}).Plan(dirty)
	wantJoins, wantLeaves := (&TargetNeighborhood{Fraction: 0.25, R: rng.New(3)}).Plan(clean)
	if len(leaves) != 10 {
		t.Fatalf("%d leavers, want the budget of 10", len(leaves))
	}
	for _, l := range leaves {
		if l < 100 || l >= 140 {
			t.Fatalf("leaver %d is not a member", l)
		}
	}
	if !slices.Equal(leaves, wantLeaves) || !slices.Equal(joins, wantJoins) {
		t.Fatalf("stale neighbour ids changed the plan: leaves %v joins %v, want %v %v", leaves, joins, wantLeaves, wantJoins)
	}
}

func TestRateChecker(t *testing.T) {
	rc := &RateChecker{Rate: 2}
	for _, s := range []int{10, 15, 20, 40, 25} {
		if err := rc.Record(s); err != nil {
			t.Fatalf("legal sequence rejected at %d: %v", s, err)
		}
	}
	if err := rc.Record(100); err == nil {
		t.Fatal("25 -> 100 at rate 2 accepted")
	}
	rc2 := &RateChecker{Rate: 2}
	rc2.Record(100)
	if err := rc2.Record(10); err == nil {
		t.Fatal("100 -> 10 at rate 2 accepted")
	}
	if len(rc.sizes) != 5 {
		t.Fatalf("sizes history wrong: %v", rc.sizes)
	}
}

func TestReplaceRespectsRate(t *testing.T) {
	nw := newNet(t, 6, 64)
	adv := &Replace{Fraction: 0.25, R: rng.New(15)}
	rc := &RateChecker{Rate: 2}
	if err := rc.Record(nw.N()); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		view := View{Members: nw.Members(), Neighbors: nw.NeighborsOf}
		joins, leaves := adv.Plan(view)
		rep, _ := nw.RunEpoch(joins, leaves)
		if err := rc.Record(rep.NNew); err != nil {
			t.Fatal(err)
		}
	}
}
