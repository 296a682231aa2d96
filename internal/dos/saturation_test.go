package dos

import (
	"sync/atomic"
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

// TestOverlappingBlockWindows drives the kernel's per-round blocked set
// through two multi-round block windows, first overlapping and then
// disjoint, and checks the §2 delivery rule against the union of the
// windows: a message sent in round i arrives iff the receiver is
// non-blocked in rounds i and i+1. Overlap must not double-drop or
// un-block anything.
func TestOverlappingBlockWindows(t *testing.T) {
	const rounds = 8
	run := func(blockedRounds map[int]bool) int64 {
		net := sim.NewNetwork(sim.Config{Seed: 21})
		var received atomic.Int64
		net.SpawnHandler(1, sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
			if r := ctx.Round(); r <= rounds {
				ctx.Send(2, r, 1)
			}
			return true
		}))
		net.SpawnHandler(2, sim.HandlerFunc(func(_ *sim.Ctx, inbox []sim.Message) bool {
			received.Add(int64(len(inbox)))
			return true
		}))
		for r := 1; r <= rounds+2; r++ {
			if blockedRounds[r] {
				net.SetBlocked(map[sim.NodeID]bool{2: true})
			}
			net.Step()
		}
		net.Shutdown()
		return received.Load()
	}
	expect := func(blockedRounds map[int]bool) int64 {
		var want int64
		for i := 1; i <= rounds; i++ {
			if !blockedRounds[i] && !blockedRounds[i+1] {
				want++
			}
		}
		return want
	}
	cases := []struct {
		name    string
		blocked map[int]bool
	}{
		// Windows [2,4) and [3,5): overlap at round 3.
		{"overlapping", map[int]bool{2: true, 3: true, 4: true}},
		// Windows [2,3) and [5,6): a clear round between them.
		{"disjoint", map[int]bool{2: true, 5: true}},
		// The same window applied twice must behave like once.
		{"duplicate", map[int]bool{3: true, 4: true}},
	}
	for _, tc := range cases {
		got, want := run(tc.blocked), expect(tc.blocked)
		if got != want {
			t.Fatalf("%s windows %v: received %d, want %d", tc.name, tc.blocked, got, want)
		}
	}
}
