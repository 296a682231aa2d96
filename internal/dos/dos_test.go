package dos

import (
	"testing"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func snap(round int) *Snapshot {
	return &Snapshot{
		Round:  round,
		Groups: [][]sim.NodeID{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		// 4 supernodes in a cycle.
		Adj: [][]int32{{1, 3}, {0, 2}, {1, 3}, {2, 0}},
	}
}

func TestBufferLateness(t *testing.T) {
	b := &Buffer{Lateness: 3}
	for r := 1; r <= 10; r++ {
		b.Publish(snap(r))
	}
	v := b.View(10)
	if v == nil || v.Round != 7 {
		t.Fatalf("10 with lateness 3 should see round 7, got %+v", v)
	}
	if b.View(3) == nil || b.View(3).Round != 0 {
		// No snapshot at round ≤ 0 exists; View(3) must find nothing.
		if b.View(3) != nil {
			t.Fatalf("View(3) = %+v, want nil", b.View(3))
		}
	}
	zero := &Buffer{Lateness: 0}
	zero.Publish(snap(5))
	if got := zero.View(5); got == nil || got.Round != 5 {
		t.Fatal("0-late buffer must serve the current round")
	}
}

func TestRandomAdversaryBudget(t *testing.T) {
	ids := make([]sim.NodeID, 100)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	a := &Random{Fraction: 0.3, R: rng.New(1), IDs: func() []sim.NodeID { return ids }}
	blocked := a.SelectBlocked(1, 100, nil)
	if len(blocked) != 30 {
		t.Fatalf("blocked %d, want 30", len(blocked))
	}
}

func TestGroupIsolateBlocksNeighborGroups(t *testing.T) {
	a := &GroupIsolate{Fraction: 0.5, R: rng.New(2)}
	s := snap(1)
	blocked := a.SelectBlocked(1, 8, s)
	if len(blocked) == 0 || len(blocked) > 4 {
		t.Fatalf("blocked %d of 8 at fraction 0.5", len(blocked))
	}
	// With budget 4 and two neighbor groups of size 2, both neighbor
	// groups of the victim must be fully blocked.
	victimNeighborsBlocked := 0
	for x := 0; x < 4; x++ {
		full := true
		for _, id := range s.Groups[x] {
			if !blocked[id] {
				full = false
			}
		}
		if full {
			victimNeighborsBlocked++
		}
	}
	if victimNeighborsBlocked < 2 {
		t.Fatalf("only %d whole groups blocked", victimNeighborsBlocked)
	}
}

func TestGroupIsolateNilSnapshot(t *testing.T) {
	a := &GroupIsolate{Fraction: 0.5, R: rng.New(3)}
	if got := a.SelectBlocked(1, 8, nil); len(got) != 0 {
		t.Fatal("nil snapshot should block nothing")
	}
}

func TestWholeGroupsRespectsBudget(t *testing.T) {
	a := &WholeGroups{Fraction: 0.5, R: rng.New(4)}
	blocked := a.SelectBlocked(1, 8, snap(1))
	if len(blocked) > 4 {
		t.Fatalf("budget exceeded: %d", len(blocked))
	}
	if len(blocked)%2 != 0 {
		t.Fatalf("partial group blocked: %d", len(blocked))
	}
}

func TestHalfEachGroup(t *testing.T) {
	a := &HalfEachGroup{Fraction: 0.5, R: rng.New(5)}
	blocked := a.SelectBlocked(1, 8, snap(1))
	if len(blocked) > 4 || len(blocked) == 0 {
		t.Fatalf("blocked %d", len(blocked))
	}
}

// TestBufferPrunesBehindView: a long run must hold about Lateness
// snapshots, not one per round, and pruning must never change which
// snapshot View serves.
func TestBufferPrunesBehindView(t *testing.T) {
	for _, late := range []int{0, 1, 7} {
		b := &Buffer{Lateness: late}
		var all []*Snapshot // what an unpruned buffer would hold
		for r := 1; r <= 10*late+10; r++ {
			s := snap(r - 1)
			b.Publish(s)
			all = append(all, s)
			var want *Snapshot
			for _, s := range all {
				if s.Round <= r-late {
					want = s
				}
			}
			if got := b.View(r); got != want {
				t.Fatalf("lateness %d round %d: View = %+v, unpruned buffer serves %+v", late, r, got, want)
			}
			if len(b.history) > late+2 {
				t.Fatalf("lateness %d round %d: %d snapshots retained, want at most %d", late, r, len(b.history), late+2)
			}
		}
	}
}
