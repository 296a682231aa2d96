package exp

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"overlaynet/internal/trace"
)

// TestRunCellsOrderAndCoverage checks that every cell runs exactly once
// and that results land in canonical cell order for worker counts both
// below and above the cell count.
func TestRunCellsOrderAndCoverage(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		o := Options{Procs: procs}
		var calls atomic.Int64
		got := mustCells(RunCells(o, 23, func(cell int) int {
			calls.Add(1)
			return cell * cell
		}))
		if calls.Load() != 23 {
			t.Fatalf("procs=%d: %d calls, want 23", procs, calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: cell %d returned %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

// TestRunRowsFlattensInOrder checks that multi-row cells concatenate in
// cell order regardless of scheduling.
func TestRunRowsFlattensInOrder(t *testing.T) {
	o := Options{Procs: 8}
	rows, err := RunRows(o, 10, func(cell int) [][]string {
		out := make([][]string, cell%3+1)
		for i := range out {
			out[i] = []string{fmt.Sprintf("%d.%d", cell, i)}
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{}
	for cell := 0; cell < 10; cell++ {
		for i := 0; i < cell%3+1; i++ {
			want = append(want, fmt.Sprintf("%d.%d", cell, i))
		}
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i][0] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i][0], want[i])
		}
	}
}

// TestRunCellsRejectsEmptySweep checks the validated-config path: a
// driver asking for zero (or negative) cells gets an error instead of
// an empty table that looks like success.
func TestRunCellsRejectsEmptySweep(t *testing.T) {
	o := Options{Exp: "EZ"}
	for _, ncells := range []int{0, -3} {
		_, err := RunCells(o, ncells, func(cell int) int { return cell })
		if err == nil {
			t.Fatalf("ncells=%d: want empty-sweep error, got nil", ncells)
		}
	}
	if _, err := RunCells(Options{Procs: -1}, 4, func(cell int) int { return cell }); err == nil {
		t.Fatal("Procs=-1: want validation error, got nil")
	}
	if _, err := RunCells(Options{CellTimeout: -time.Second}, 4, func(cell int) int { return cell }); err == nil {
		t.Fatal("CellTimeout<0: want validation error, got nil")
	}
}

// TestRunRowsRejectsZeroRowCell checks that a cell rendering no rows —
// a zero-node or otherwise degenerate configuration — fails the sweep
// loudly instead of silently shrinking the table.
func TestRunRowsRejectsZeroRowCell(t *testing.T) {
	o := Options{Exp: "EZ", Procs: 2}
	_, err := RunRows(o, 5, func(cell int) [][]string {
		if cell == 3 {
			return nil
		}
		return [][]string{{fmt.Sprint(cell)}}
	})
	if err == nil {
		t.Fatal("want zero-row cell error, got nil")
	}
	if want := "cell 3"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the offending cell (%q)", err, want)
	}
}

// TestRunCellsWatchdog checks the stall detector: a cell that makes no
// progress within CellTimeout is abandoned with a diagnostic naming the
// cell, the remaining cells still run, and their results survive.
func TestRunCellsWatchdog(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	o := Options{Exp: "EW", Procs: 4, CellTimeout: 50 * time.Millisecond}
	var done atomic.Int64
	got, err := RunCells(o, 6, func(cell int) int {
		if cell == 2 {
			<-block // livelocked cell: never finishes on its own
			return -1
		}
		done.Add(1)
		return cell * 10
	})
	if err == nil {
		t.Fatal("want watchdog error for stalled cell, got nil")
	}
	if !strings.Contains(err.Error(), "cell 2") || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("watchdog diagnostic %q does not name the stalled cell", err)
	}
	if done.Load() != 5 {
		t.Fatalf("%d healthy cells completed, want 5", done.Load())
	}
	for i, v := range got {
		want := i * 10
		if i == 2 {
			want = 0 // abandoned cell leaves its zero value
		}
		if v != want {
			t.Fatalf("cell %d = %d, want %d", i, v, want)
		}
	}
}

// TestParallelDeterminism is the harness contract: the same seed must
// render byte-identical tables at Procs=1 and Procs=8, for a driver
// whose cells are pure simulator runs (E1) and one that exercises the
// full reconfiguration machinery (E6). Under -race this doubles as the
// parallel runner's race smoke test.
func TestParallelDeterminism(t *testing.T) {
	for _, e := range []Experiment{
		{"E1", "", E1RapidSamplingHGraph},
		{"E6", "", E6ReconfigChurn},
	} {
		serial := e.Run(Options{Seed: 42, Quick: true, Procs: 1}).String()
		parallel := e.Run(Options{Seed: 42, Quick: true, Procs: 8}).String()
		if serial != parallel {
			t.Fatalf("%s: tables differ between Procs=1 and Procs=8:\n--- procs=1\n%s\n--- procs=8\n%s",
				e.ID, serial, parallel)
		}
	}
}

// TestCellSeedsDistinct guards the seed-derivation helper: nearby sweep
// coordinates must not collide.
func TestCellSeedsDistinct(t *testing.T) {
	seen := map[uint64][2]uint64{}
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			s := cellSeed(42, a, b)
			if prev, dup := seen[s]; dup {
				t.Fatalf("cellSeed collision: (%d,%d) and (%d,%d) -> %d", a, b, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{a, b}
		}
	}
}

// TestRunCellsTelemetry checks the runner's span and progress
// instrumentation: one cell span per cell with the experiment label,
// seed and a worker id within range, and one progress tick per cell.
func TestRunCellsTelemetry(t *testing.T) {
	rec := trace.New()
	prog := trace.NewProgress(io.Discard, time.Hour)
	o := Options{Seed: 42, Procs: 4, Exp: "EX", Trace: rec, Progress: prog}
	const ncells = 9
	mustCells(RunCells(o, ncells, func(cell int) int { return cell }))
	prog.Close()

	spans := rec.Spans()
	if len(spans) != ncells {
		t.Fatalf("got %d cell spans, want %d", len(spans), ncells)
	}
	seen := map[int]bool{}
	for _, s := range spans {
		if s.Kind != "cell" || s.Scope != "EX" || s.Seed != 42 {
			t.Fatalf("bad cell span: %+v", s)
		}
		if s.Worker < 0 || s.Worker >= 4 {
			t.Fatalf("worker id out of range: %+v", s)
		}
		if seen[s.Cell] {
			t.Fatalf("duplicate span for cell %d", s.Cell)
		}
		seen[s.Cell] = true
	}
	if got := rec.Snapshot()["overlaynet_cells_total"]; got != ncells {
		t.Fatalf("cell counter = %v, want %d", got, ncells)
	}
}

// TestTelemetryDoesNotPerturbTables is the acceptance criterion for the
// observability layer at the experiment level: every quick table must
// be byte-identical with and without a recorder + progress attached.
// The plain renderings, in All() order, are also the repo's one record
// of absolute table values: their digest was taken before the coroutine
// drivers were ported to handlers and must not move.
func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	const recorded = "598c8f80dab0df64"
	rec := trace.New()
	prog := trace.NewProgress(io.Discard, time.Hour)
	defer prog.Close()
	tables := fnv.New64a()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			// Wall-clock columns (S2's rounds/sec) measure throughput, not
			// work, and legitimately vary run to run — mask them so the
			// comparison covers every deterministic column.
			plain := MaskWallClock(e.Run(Options{Seed: 42, Quick: true, Exp: e.ID})).String()
			fmt.Fprintf(tables, "%s\n", plain)
			traced := MaskWallClock(e.Run(Options{Seed: 42, Quick: true, Exp: e.ID, Trace: rec, Progress: prog})).String()
			if plain != traced {
				t.Fatalf("%s: table differs with telemetry attached:\n--- plain\n%s\n--- traced\n%s",
					e.ID, plain, traced)
			}
		})
	}
	if rec.Snapshot()["overlaynet_rounds_total"] == 0 {
		t.Fatal("recorder saw no simulator rounds — tracing is not wired through the drivers")
	}
	if got := fmt.Sprintf("%016x", tables.Sum64()); got != recorded {
		t.Errorf("digest of the %d quick tables is %s, recorded %s", len(All()), got, recorded)
	}
}
