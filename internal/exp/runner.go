package exp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"overlaynet/internal/metrics"
)

// The parallel trial harness. Every experiment driver is a sweep over
// independent (size, parameter, trial) cells: each cell builds its own
// networks from its own deterministic seed and renders one or more
// table rows. RunCells executes the cells on a worker pool and returns
// the results in canonical cell order, so the rendered table is
// bitwise identical to a serial run for any worker count.

// workers resolves Options.Procs to a concrete worker count.
func (o Options) workers() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// validate rejects sweep configurations that would silently produce an
// empty or wrong table: a driver asking for no cells at all is a config
// bug (an empty sweep renders an empty table that looks like success),
// and negative worker counts or timeouts are never meaningful.
func (o Options) validate(ncells int) error {
	if ncells <= 0 {
		return fmt.Errorf("exp: %s: empty sweep (%d cells) — refusing to render an empty table", o.expLabel(), ncells)
	}
	if o.Procs < 0 {
		return fmt.Errorf("exp: %s: negative worker count %d", o.expLabel(), o.Procs)
	}
	if o.CellTimeout < 0 {
		return fmt.Errorf("exp: %s: negative cell timeout %v", o.expLabel(), o.CellTimeout)
	}
	return nil
}

func (o Options) expLabel() string {
	if o.Exp == "" {
		return "(unnamed experiment)"
	}
	return o.Exp
}

// RunCells evaluates fn(0..ncells-1) across min(workers, ncells)
// goroutines and returns the results indexed by cell. fn must be safe
// for concurrent invocation across distinct cells: cells must not
// share mutable state (in particular, each cell derives its randomness
// from the cell's own seed, never from a generator shared across
// cells). Results land in cell order regardless of completion order.
//
// It returns an error on a misconfigured sweep (no cells, negative
// workers or timeout) and, when Options.CellTimeout is set, on any cell
// that fails to finish within the timeout — the watchdog that turns a
// livelocked repair protocol into a diagnostic instead of a hung sweep.
// A timed-out cell leaves its zero value in the result slice; the
// remaining cells still run so the error reports against a complete
// picture.
func RunCells[T any](o Options, ncells int, fn func(cell int) T) ([]T, error) {
	if err := o.validate(ncells); err != nil {
		return nil, err
	}
	out := make([]T, ncells)
	procs := o.workers()
	if procs > ncells {
		procs = ncells
	}
	if o.Progress != nil {
		o.Progress.AddCells(o.Exp, ncells)
	}
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// evalCell runs fn(i), under the stall watchdog when a timeout is
	// configured. The result channel is buffered so a cell that finishes
	// after its deadline parks its send and lets the goroutine exit
	// (the goroutine itself cannot be cancelled; the diagnostic is the
	// point — the alternative was hanging the whole sweep).
	evalCell := func(i int) T {
		if o.CellTimeout <= 0 {
			return fn(i)
		}
		res := make(chan T, 1)
		go func() { res <- fn(i) }()
		select {
		case v := <-res:
			return v
		case <-time.After(o.CellTimeout):
			fail(fmt.Errorf("exp: %s: cell %d made no progress for %v — stalled (livelock?); cell abandoned",
				o.expLabel(), i, o.CellTimeout))
			var zero T
			return zero
		}
	}
	// runCell wraps evalCell with the per-cell telemetry: a span naming
	// the experiment, cell coordinate, experiment seed, worker id and
	// wall time, plus the live-progress tick. Telemetry is observation
	// only — results and scheduling are identical with or without it.
	runCell := func(worker, i int) {
		if o.Trace == nil && o.Progress == nil {
			out[i] = evalCell(i)
			return
		}
		start := time.Now()
		out[i] = evalCell(i)
		if o.Trace != nil {
			o.Trace.CellSpan(o.Exp, i, o.Seed, worker, start)
		}
		if o.Progress != nil {
			o.Progress.CellDone(o.Exp)
		}
	}
	if procs <= 1 {
		for i := range out {
			runCell(0, i)
		}
		return out, firstErr
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ncells {
					return
				}
				runCell(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return out, firstErr
}

// RunRows is RunCells for the common case of cells that each produce a
// batch of table rows, one value per column: the per-cell batches are
// concatenated in cell order. A cell that produces zero rows (with no
// watchdog error already explaining why) is reported as an error — it
// means the cell built a degenerate (for example zero-node) configuration
// and its absence would silently shrink the table.
func RunRows(o Options, ncells int, fn func(cell int) [][]any) ([][]any, error) {
	batches, err := RunCells(o, ncells, fn)
	if err != nil {
		return nil, err
	}
	var rows [][]any
	for i, batch := range batches {
		if len(batch) == 0 {
			return nil, fmt.Errorf("exp: %s: cell %d rendered zero rows (zero-node or degenerate cell configuration)",
				o.expLabel(), i)
		}
		rows = append(rows, batch...)
	}
	return rows, nil
}

// sweep fills a driver's table t with the rows of its RunRows sweep and
// returns it. A sweep that fails validation or stalls is a driver/config
// bug, surfaced as a panic the CLI's recover path turns into a proper
// error exit; so is a row of the wrong width (metrics.Table.AddRow).
func sweep(o Options, t *metrics.Table, ncells int, fn func(cell int) [][]any) *metrics.Table {
	rows, err := RunRows(o, ncells, fn)
	if err != nil {
		panic(err)
	}
	t.AddRows(rows)
	return t
}

// cellSeed derives the seed for one sweep cell from the experiment
// seed and the cell's coordinates. The multipliers keep distinct
// coordinates from colliding under xor (they are odd, so the map is a
// bijection per coordinate).
func cellSeed(seed uint64, coord ...uint64) uint64 {
	s := seed
	for i, c := range coord {
		s ^= (c + uint64(i)*0x632be59bd9b4e019 + 1) * 0x9e3779b97f4a7c15
	}
	return s
}
