package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"overlaynet/internal/obs"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
	"overlaynet/internal/trace"
)

// This file is the determinism contract, stated once: every quick table
// is a pure function of the seed. The baseline renders each experiment
// serially on one worker and one engine shard; TestTablesInvariant pins
// its digest. Each row of the matrix then changes only what the
// contract says cannot matter, renders all experiments again and must
// match the baseline byte for byte. A row is a test named for the
// property it guards:
//
//	TestTelemetryDoesNotPerturbTables           recorder + progress
//	TestTablesByteIdenticalWithMetricsAttached  shared registry
//	TestParallelDeterminism                     8 cell workers
//	TestTablesByteIdenticalAcrossShards         4 engine shards
//	TestAuditAttachmentDoesNotChangeTables      audit engine
//	TestLatencyZeroSpreadReproducesSyncTables   const:1, bare and behind
//	                                            an idle reliable layer
//
// Under -race the worker and shard rows are the concurrent cell
// runner's and the sharded engine's race smoke tests.

var invariantBase = Options{Seed: 42, Quick: true, Procs: 1, Shards: 1}

// rendered is one experiment's table as the matrix compares it, with
// S2's wall-clock column masked.
type rendered struct {
	rows int
	out  string
}

func render(o Options, e Experiment) rendered {
	o.Exp = e.ID
	tbl := MaskWallClock(e.Run(o))
	return rendered{tbl.NumRows(), tbl.String()}
}

// baseline renders each experiment at invariantBase once per test
// binary, for whichever test asks first.
var baseline = func() map[string]func() rendered {
	m := map[string]func() rendered{}
	for _, e := range All() {
		m[e.ID] = sync.OnceValue(func() rendered { return render(invariantBase, e) })
	}
	return m
}()

// checkRow renders every experiment at the baseline options changed by
// edit, one subtest per experiment, and fails any table that differs
// from its baseline. A row with a recorder also checks that every
// experiment sweeps through RunCells (a cell span carries its id) and
// that the recorder saw simulator rounds.
func checkRow(t *testing.T, edit func(*Options)) {
	t.Helper()
	o := invariantBase
	edit(&o)
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			want := baseline[e.ID]().out
			if got := render(o, e).out; got != want {
				t.Fatalf("table differs from the baseline:\n--- baseline\n%s\n--- row\n%s", want, got)
			}
			isCell := func(s trace.Span) bool { return s.Kind == "cell" && s.Name == e.ID }
			if o.Trace != nil && !slices.ContainsFunc(o.Trace.Spans(), isCell) {
				t.Errorf("no cell span: the sweep bypasses RunCells")
			}
		})
	}
	if o.Trace != nil && o.Trace.Snapshot()["overlaynet_rounds_total"] == 0 {
		t.Error("the recorder saw no simulator rounds: tracing is not wired through the drivers")
	}
}

// TestTablesInvariant pins the baseline: the digest of the quick tables
// in All() order is the repo's one record of absolute table values,
// taken before the coroutine drivers were ported to handlers. It moves
// only with a deliberate table change; the last was Algorithm 1's M_0
// becoming a budget read by fresh draws (every table that runs §3's
// H-graph sampler or §4).
func TestTablesInvariant(t *testing.T) {
	t.Parallel()
	const recorded = "744edb728d90fb48"
	h := fnv.New64a()
	for _, e := range All() {
		fmt.Fprintf(h, "%s\n", baseline[e.ID]().out)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != recorded {
		t.Errorf("digest of the %d quick tables is %s, recorded %s", len(All()), got, recorded)
	}
}

// TestAllExperimentsQuick is the baseline row: every driver runs in
// quick mode, emits rows, and titles its table with its id.
func TestAllExperimentsQuick(t *testing.T) {
	t.Parallel()
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			b := baseline[e.ID]()
			if b.rows == 0 {
				t.Fatal("produced no rows")
			}
			if title, _, _ := strings.Cut(b.out, "\n"); !strings.Contains(title, e.ID) {
				t.Fatalf("table title %q does not name it", title)
			}
		})
	}
}

func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	t.Parallel()
	prog := trace.NewProgress(io.Discard, time.Hour)
	t.Cleanup(prog.Close)
	checkRow(t, func(o *Options) { o.Trace, o.Progress = trace.New(), prog })
}

func TestTablesByteIdenticalWithMetricsAttached(t *testing.T) {
	t.Parallel()
	checkRow(t, func(o *Options) {
		o.Trace = trace.New().WithMetrics(obs.NewRegistry(0))
	})
}

func TestParallelDeterminism(t *testing.T) {
	t.Parallel()
	checkRow(t, func(o *Options) { o.Procs = 8 })
}

func TestTablesByteIdenticalAcrossShards(t *testing.T) {
	t.Parallel()
	checkRow(t, func(o *Options) { o.Shards = 4 })
}

func TestAuditAttachmentDoesNotChangeTables(t *testing.T) {
	t.Parallel()
	checkRow(t, func(o *Options) { o.Audit = true })
}

func TestLatencyZeroSpreadReproducesSyncTables(t *testing.T) {
	t.Parallel()
	zero := sim.Latency{Kind: sim.LatencyConst, A: 1}
	t.Run("const1", func(t *testing.T) {
		checkRow(t, func(o *Options) { o.Latency = zero })
	})
	t.Run("const1+reliable", func(t *testing.T) {
		checkRow(t, func(o *Options) { o.Latency, o.Reliable = zero, reliable.On() })
	})
}
