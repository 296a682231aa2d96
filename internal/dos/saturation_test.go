package dos

import (
	"testing"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Saturation regime: the adversary's budget meets or exceeds n. Every
// adversary must degrade to "block everything it may touch" without
// panicking or over-spending, because the R-sweeps of E8/E9 walk the
// fraction all the way to 1 and beyond.

func TestRandomAdversarySaturation(t *testing.T) {
	ids := make([]sim.NodeID, 20)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	for _, frac := range []float64{1.0, 1.5, 10.0} {
		a := &Random{Fraction: frac, R: rng.New(7), IDs: func() []sim.NodeID { return ids }}
		blocked := a.SelectBlocked(1, len(ids), nil)
		if len(blocked) != len(ids) {
			t.Fatalf("fraction %.1f blocked %d of %d, want all", frac, len(blocked), len(ids))
		}
	}
}

func TestGroupIsolateSaturation(t *testing.T) {
	a := &GroupIsolate{Fraction: 2.0, R: rng.New(9)}
	s := snap(1)
	n := 8
	blocked := a.SelectBlocked(1, n, s)
	if len(blocked) > n {
		t.Fatalf("blocked %d of %d: budget exceeded", len(blocked), n)
	}
	// The victim's own members must stay unblocked even with infinite
	// budget — they are the nodes being observably cut off.
	victims := 0
	for _, grp := range s.Groups {
		all := true
		for _, id := range grp {
			if !blocked[id] {
				all = false
			}
		}
		if !all {
			victims++
		}
	}
	if victims != 1 {
		t.Fatalf("%d groups partially unblocked at saturation, want exactly the victim", victims)
	}
}

func TestWholeGroupsSaturation(t *testing.T) {
	for _, frac := range []float64{1.0, 3.0} {
		a := &WholeGroups{Fraction: frac, R: rng.New(11)}
		blocked := a.SelectBlocked(1, 8, snap(1))
		if len(blocked) != 8 {
			t.Fatalf("fraction %.1f blocked %d of 8, want all groups", frac, len(blocked))
		}
	}
}

func TestHalfEachGroupSaturation(t *testing.T) {
	a := &HalfEachGroup{Fraction: 5.0, R: rng.New(13)}
	s := snap(1)
	blocked := a.SelectBlocked(1, 8, s)
	// Half of each group of two is one node; four groups → four blocks,
	// regardless of how much budget is left over.
	if len(blocked) != 4 {
		t.Fatalf("blocked %d, want half of each of 4 groups = 4", len(blocked))
	}
	for _, grp := range s.Groups {
		half := 0
		for _, id := range grp {
			if blocked[id] {
				half++
			}
		}
		if half != 1 {
			t.Fatalf("group %v has %d blocked members, want 1", grp, half)
		}
	}
}
