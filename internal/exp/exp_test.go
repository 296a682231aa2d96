package exp

import (
	"testing"

	"overlaynet/internal/metrics"
)

// valueAs returns the value in row i of tbl's column col as a T, and fails
// the test when the cell holds another type.
func valueAs[T any](t *testing.T, tbl *metrics.Table, i int, col string) T {
	t.Helper()
	v, ok := tbl.Value(i, col).(T)
	if !ok {
		t.Fatalf("%s: row %d %q holds %#v, not a %T", tbl.Title, i, col, tbl.Value(i, col), v)
	}
	return v
}

// num returns the number in row i of tbl's column col, whatever its
// integer or float type.
func num(t *testing.T, tbl *metrics.Table, i int, col string) float64 {
	t.Helper()
	switch v := tbl.Value(i, col).(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case uint64:
		return float64(v)
	case float64:
		return v
	}
	t.Fatalf("%s: row %d %q holds %#v, not a number", tbl.Title, i, col, tbl.Value(i, col))
	return 0
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Claim == "" {
			t.Fatalf("%s has no claim", e.ID)
		}
	}
	if len(seen) != 27 {
		t.Fatalf("expected 27 experiments, have %d", len(seen))
	}
}

// TestFloodSizeHintMovesNoCount pins that sim.Config.SizeHint is a
// capacity hint only: S2's cell counts the same messages and bits with
// it as without it, so S2 with a hint reports what a hintless flood
// table would.
func TestFloodSizeHintMovesNoCount(t *testing.T) {
	const n = 2000
	o := Options{Seed: 42}
	bare, hinted := runFlood(o, n, 0), runFlood(o, n, n)
	if bare != hinted || bare.msgs != n*floodFanout*floodRounds {
		t.Fatalf("flood at n=%d: no hint %+v, hint n %+v", n, bare, hinted)
	}
}

// TestHeadlineResultsQuick asserts the load-bearing outcomes the paper
// claims, in quick mode: E4's speed-up exists, E5's degenerate budget
// fails, E8's late adversary never disconnects while its real-time twin
// does.
func TestHeadlineResultsQuick(t *testing.T) {
	o := Options{Seed: 7, Quick: true}
	e4 := E4RapidVsWalk(o)
	if valueAs[string](t, e4, 0, "topology") != "H-graph" || valueAs[float64](t, e4, 0, "speed-up") <= 1 {
		t.Errorf("E4: no H-graph speed-up:\n%s", e4)
	}
	e5 := E5SuccessProbability(o)
	if e5.Value(2, "epsilon") != 0.25 || e5.Value(2, "c") != 0.5 || valueAs[int](t, e5, 2, "failures") == 0 {
		t.Errorf("E5: the (eps 0.25, c 0.5) budget does not fail:\n%s", e5)
	}
	e8 := E8DoSConnectivity(o)
	if e8.NumRows() != 2 || valueAs[int](t, e8, 0, "lateness") == 0 || valueAs[int](t, e8, 1, "lateness") != 0 {
		t.Fatalf("E8: want a 2-epoch-late row, then a 0-late row:\n%s", e8)
	}
	if valueAs[int](t, e8, 0, "disconnected rounds") != 0 || valueAs[int](t, e8, 1, "disconnected rounds") == 0 {
		t.Errorf("E8: the late adversary must never disconnect, the real-time one must:\n%s", e8)
	}
}
