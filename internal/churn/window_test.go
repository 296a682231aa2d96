package churn

import (
	"testing"

	"overlaynet/internal/core"
	"overlaynet/internal/rng"
)

func TestWindowCheckerAcceptsLegalSequence(t *testing.T) {
	wc := NewWindowChecker(1)
	// W_1 = {1,2,3}, V_1 = {1,2,3}.
	if err := wc.Record([]int{1, 2, 3}, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// W_2 = {2,3,4}: node 1 leaving, 4 joining; V_2 may lag by T=1, so
	// both V={1,2,3,4} (union) and V={2,3,4} (exact) are legal.
	if err := wc.Record([]int{2, 3, 4}, []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Record([]int{2, 3, 4}, []int{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowCheckerRejectsGhostMember(t *testing.T) {
	wc := NewWindowChecker(1)
	wc.Record([]int{1, 2}, []int{1, 2})
	if err := wc.Record([]int{1, 2}, []int{1, 2, 99}); err == nil {
		t.Fatal("member never prescribed was accepted")
	}
}

func TestWindowCheckerRejectsMissingIntersection(t *testing.T) {
	wc := NewWindowChecker(1)
	wc.Record([]int{1, 2, 3}, []int{1, 2, 3})
	// Node 2 prescribed in both windows but missing from V.
	if err := wc.Record([]int{1, 2, 3}, []int{1, 3}); err == nil {
		t.Fatal("dropped a node prescribed throughout the window")
	}
}

func TestWindowCheckerRejectsReentry(t *testing.T) {
	wc := NewWindowChecker(1)
	wc.Record([]int{1, 2}, []int{1, 2})
	wc.Record([]int{2}, []int{2}) // 1 departs
	if err := wc.Record([]int{1, 2}, []int{1, 2}); err == nil {
		t.Fatal("departed id re-entered without error (monotonicity violated)")
	}
}

// TestNetworkSatisfiesWindowContainment drives the real network and
// checks that its realized member sets satisfy the §1.1 containment
// with T = 1 epoch.
func TestNetworkSatisfiesWindowContainment(t *testing.T) {
	nw := core.NewNetwork(core.Config{Seed: 8, N0: 32, D: 6})
	defer nw.Shutdown()
	wc := NewWindowChecker(1)
	adv := &Replace{Fraction: 0.25, R: rng.New(80)}
	// W_0 = V_0 = initial members.
	if err := wc.Record(nw.Members(), nw.Members()); err != nil {
		t.Fatal(err)
	}
	next := 32 // joiners are numbered on from N0, in join order
	for e := 0; e < 5; e++ {
		view := View{Members: nw.Members(), Neighbors: nw.NeighborsOf}
		joins, leaves := adv.Plan(view)
		// The prescription W_{e+1}: current members minus leavers plus
		// the ids the joiners will get.
		leaving := map[int]bool{}
		for _, id := range leaves {
			leaving[id] = true
		}
		var prescribed []int
		for _, id := range nw.Members() {
			if !leaving[id] {
				prescribed = append(prescribed, id)
			}
		}
		for range joins {
			prescribed = append(prescribed, next)
			next++
		}
		nw.RunEpoch(joins, leaves)
		if err := wc.Record(prescribed, nw.Members()); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
}
