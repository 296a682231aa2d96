package exp

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"overlaynet/internal/fault"
)

// TestAuditedFaultedTablesShardInvariant is the fault-layer determinism
// acceptance at the table level: with the audit engine attached and a
// drop schedule injected, the rendered tables must be byte-identical
// for Shards=1 and Shards=8 — the injected faults are functions of
// message identity, not of scheduling.
func TestAuditedFaultedTablesShardInvariant(t *testing.T) {
	for _, e := range []Experiment{
		{"E6", "", E6ReconfigChurn},
		{"E8", "", E8DoSConnectivity},
		{"F1", "", F1FaultMatrix},
	} {
		mk := func(shards int) string {
			return e.Run(Options{Seed: 42, Quick: true, Procs: 2, Shards: shards,
				Audit: true, Faults: fault.Spec{Drop: 0.01}, Exp: e.ID}).String()
		}
		if a, b := mk(1), mk(8); a != b {
			t.Fatalf("%s: audited+faulted tables differ between Shards=1 and Shards=8:\n--- shards=1\n%s\n--- shards=8\n%s", e.ID, a, b)
		}
	}
}

// TestF1FaultMatrixSmoke: the F1 experiment's control rows (no faults)
// must be healthy with zero violations, and the faulted rows must show
// actual injected activity.
func TestF1FaultMatrixSmoke(t *testing.T) {
	tbl := F1FaultMatrix(Options{Seed: 42, Quick: true, Procs: 2, Exp: "F1"})
	if tbl.NumRows() == 0 {
		t.Fatal("F1 rendered no rows")
	}
	sawFaultActivity := false
	for i, row := range tbl.Rows() {
		if valueAs[string](t, tbl, i, "faults") == "none" {
			if valueAs[int](t, tbl, i, "violations") != 0 || !valueAs[bool](t, tbl, i, "healthy") {
				t.Fatalf("control row unhealthy: %v", row)
			}
			continue
		}
		if num(t, tbl, i, "crashes") != 0 || num(t, tbl, i, "msg drops") != 0 || num(t, tbl, i, "msg dups") != 0 {
			sawFaultActivity = true
		}
	}
	if !sawFaultActivity {
		t.Fatalf("no faulted row showed any injected activity:\n%s", tbl.String())
	}
	if !strings.Contains(tbl.String(), "F1") {
		t.Fatal("table missing title")
	}
}

// TestGlobalFlagMatrix pins which drivers the global -audit/-faults
// options reach, recorded before the wiring moved into stack.go (and
// re-recorded when Algorithm 1's M_0 became a budget, which moves E6):
// the three that honour them (E6, E8, E10 — one per stack) render tables
// whose digest must not move, and one driver per stack that does not
// (E7, E9, X1) renders the same bytes with and without them.
func TestGlobalFlagMatrix(t *testing.T) {
	const recorded = "56b8ad28239ff368"
	flags := func(o Options) Options {
		o.Audit, o.Faults = true, fault.Spec{Drop: 0.01, Dup: 0.01}
		return o
	}
	h := fnv.New64a()
	for _, e := range []Experiment{
		{"E6", "", E6ReconfigChurn},
		{"E8", "", E8DoSConnectivity},
		{"E10", "", E10ChurnDoS},
	} {
		fmt.Fprintf(h, "%s\n", e.Run(flags(Options{Seed: 42, Quick: true, Exp: e.ID})).String())
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != recorded {
		t.Errorf("digest of the audited+faulted E6/E8/E10 tables is %s, recorded %s", got, recorded)
	}
	for _, e := range []Experiment{
		{"E7", "", E7CongestionSegments},
		{"E9", "", E9GroupBalance},
		{"X1", "", X1ChurnRateLimit},
	} {
		o := Options{Seed: 42, Quick: true, Exp: e.ID}
		if plain, flagged := e.Run(o).String(), e.Run(flags(o)).String(); plain != flagged {
			t.Errorf("%s does not honour -audit/-faults, yet they changed its table:\n--- plain\n%s\n--- flagged\n%s",
				e.ID, plain, flagged)
		}
	}
}
