package churn

import "testing"

// Boundary behavior of the churn-rate and delay-window checkers: the
// paper's bounds are inclusive, so sizes exactly at r·|W_i| or |W_i|/r
// and memberships at the very edge of the T-round window must pass,
// while one step beyond must fail.

func TestRateCheckerInclusiveBounds(t *testing.T) {
	rc := &RateChecker{Rate: 2.0}
	for _, sz := range []int{10, 20, 10, 5} { // ×2, ÷2, ÷2: all exactly on the bound
		if err := rc.Record(sz); err != nil {
			t.Fatalf("size %d on the rate bound rejected: %v", sz, err)
		}
	}
	if err := rc.Record(11); err == nil { // 11 > 2·5
		t.Fatal("size one above the rate bound accepted")
	}
	rc2 := &RateChecker{Rate: 2.0}
	if err := rc2.Record(10); err != nil {
		t.Fatal(err)
	}
	if err := rc2.Record(4); err == nil { // 4 < 10/2
		t.Fatal("size one below the rate bound accepted")
	}
}

func TestRateCheckerFirstRecordUnconstrained(t *testing.T) {
	rc := &RateChecker{Rate: 1.1}
	if err := rc.Record(1000000); err != nil {
		t.Fatalf("first size constrained: %v", err)
	}
	if got := rc.sizes; len(got) != 1 || got[0] != 1000000 {
		t.Fatalf("Sizes() = %v", got)
	}
}

func TestWindowCheckerEdgeOfWindow(t *testing.T) {
	// T=1: the union window is {W_{i-1}, W_i}. A member prescribed only
	// in W_{i-1} is legal at step i (last covered step) and becomes a
	// ghost at step i+1 (just fell out of the window).
	wc := NewWindowChecker(1)
	if err := wc.Record([]int{1, 2, 3}, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Node 3 no longer prescribed but still present: inside the window.
	if err := wc.Record([]int{1, 2}, []int{1, 2, 3}); err != nil {
		t.Fatalf("member at the trailing edge of the window rejected: %v", err)
	}
	// One step later node 3 is outside every window prescription.
	if err := wc.Record([]int{1, 2}, []int{1, 2, 3}); err == nil {
		t.Fatal("member one past the window edge accepted")
	}
}

func TestWindowCheckerIntersectionAtBoundary(t *testing.T) {
	// An id prescribed in every window step must be in V — including
	// when the window has just reached its full length T+1.
	wc := NewWindowChecker(2)
	if err := wc.Record([]int{1, 2}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := wc.Record([]int{1, 2}, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Third step: window is now {W_0, W_1, W_2}; 2 is in all three but
	// missing from V.
	if err := wc.Record([]int{1, 2}, []int{1}); err == nil {
		t.Fatal("id prescribed throughout the full window may not be dropped")
	}
}

func TestWindowCheckerShortHistoryClamp(t *testing.T) {
	// With T larger than the history so far, the window clamps to the
	// available prescriptions instead of indexing before the start.
	wc := NewWindowChecker(5)
	if err := wc.Record([]int{1}, []int{1}); err != nil {
		t.Fatalf("single-step history: %v", err)
	}
	// 2 was never prescribed: ghost even though the window is short.
	if err := wc.Record([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("ghost member accepted during the clamped window")
	}
}

func TestWindowCheckerDepartureThenWindowReuse(t *testing.T) {
	// A departed id stays banned even if it is prescribed again inside a
	// fresh window (monotone membership: join and leave at most once).
	wc := NewWindowChecker(1)
	steps := []struct {
		w, v []int
	}{
		{[]int{1, 2}, []int{1, 2}},
		{[]int{1}, []int{1}},    // 2 departs
		{[]int{1, 2}, []int{1}}, // re-prescribed, absent: fine
	}
	for i, st := range steps {
		if err := wc.Record(st.w, st.v); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := wc.Record([]int{1, 2}, []int{1, 2}); err == nil {
		t.Fatal("departed id re-entered V without an error")
	}
}
