package exp

import (
	"slices"
	"strings"
	"testing"

	"overlaynet/internal/trace"
)

// TestAllExperimentsQuick runs every experiment driver in quick mode
// and sanity-checks the emitted tables. This doubles as an integration
// test across all subsystems. Every driver must sweep through the one
// cell runner, which is what gives it cell spans, progress and the
// -cell-timeout watchdog: at least one cell span carries its id.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rec := trace.New()
			tbl := e.Run(Options{Seed: 42, Quick: true, Exp: e.ID, Trace: rec})
			if tbl == nil || tbl.NumRows() == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			out := tbl.String()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("%s table title missing id:\n%s", e.ID, out)
			}
			if !slices.ContainsFunc(rec.Spans(), func(s trace.Span) bool { return s.Kind == "cell" && s.Name == e.ID }) {
				t.Fatalf("%s recorded no cell span: its sweep bypasses RunCells", e.ID)
			}
		})
	}
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
