package exp

import (
	"fmt"
	"time"

	"overlaynet/internal/metrics"
	"overlaynet/internal/sim"
)

// floodHandler returns the shared event-driven flood node: every round,
// send fanout messages of idBits each to uniformly random targets. One
// HandlerFunc value serves every node of the network (per-node identity
// lives in the Ctx), so the per-node footprint is the kernel's dense
// slot alone — the regime the n=1M scale experiment measures.
func floodHandler(n, fanout, idBits int) sim.HandlerFunc {
	return func(ctx *sim.Ctx, _ []sim.Message) bool {
		r := ctx.RNG()
		for j := 0; j < fanout; j++ {
			ctx.Send(sim.NodeID(r.Intn(n)+1), nil, idBits)
		}
		return true
	}
}

// buildFlood populates a network with n flood nodes.
func buildFlood(net *sim.Network, n, fanout, idBits int) {
	h := floodHandler(n, fanout, idBits)
	for v := 0; v < n; v++ {
		net.SpawnHandler(sim.NodeID(v+1), h)
	}
}

// S1ScaleFlood exercises one simulated network at the sizes the
// ROADMAP's production-scale goal calls for (related reproductions of
// dynamic overlays evaluate at hundreds of thousands of nodes). Every
// node picks fanout random known targets per round, the regime the
// kernel's dense-slot layout and sharded delivery are built for. All
// reported columns are deterministic at a fixed seed — messages and
// bits come from the simulator's work accounting, never from wall time
// — so the table is byte-identical for any Procs and Shards setting;
// Options.Shards only changes how fast the rounds run on a multi-core
// machine.
func S1ScaleFlood(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S1  Scale — flood rounds on a single network (fanout=4)",
		"n", "rounds", "messages/round", "total Mbits", "max bits/node-round")
	ns := o.sizes([]int{1000, 10000}, []int{10000, 100000})
	const fanout, rounds = 4, 8
	// One network at a time: the cells here are memory-heavy and
	// intra-round sharding is the axis under test, so the sweep runs
	// serially regardless of Procs.
	rows := make([][]string, 0, len(ns))
	for _, n := range ns {
		net := sim.NewNetwork(sim.Config{Seed: cellSeed(o.Seed, uint64(n)), Shards: o.Shards, Latency: o.Latency})
		if o.Trace != nil {
			net.SetTracer(o.Trace.Tracer(fmt.Sprintf("%s/n%d", o.Exp, n)))
		}
		idBits := sim.IDBits(n)
		buildFlood(net, n, fanout, idBits)
		net.Run(rounds)
		net.Shutdown()
		var msgs int
		var bits, maxBits int64
		for _, w := range net.Work() {
			msgs += w.Messages
			bits += w.TotalBits
			if w.MaxNodeBits > maxBits {
				maxBits = w.MaxNodeBits
			}
		}
		rows = append(rows, metrics.Row(n, rounds, msgs/rounds,
			fmt.Sprintf("%.2f", float64(bits)/1e6), maxBits))
	}
	t.AddRows(rows)
	if o.Progress != nil {
		o.Progress.AddCells(o.Exp, len(ns))
		for range ns {
			o.Progress.CellDone(o.Exp)
		}
	}
	return t
}

// S2ScaleFloodEvent measures the event-driven handler kernel at the
// sizes the goroutine-per-node design could not reach: flood rounds on
// a single network up to n = 1,000,000 nodes. All columns except the
// last are deterministic work-accounting quantities (bytes/node-round
// is total sent+received communication averaged over nodes and rounds);
// the final column is the measured wall-clock round throughput of the
// net.Run call, which varies by machine — regression tests comparing
// tables across execution modes or shard counts mask it (see
// MaskWallClock). When telemetry is attached, each size also records a
// scale span (n, rounds/sec, bytes/node) so the perf trajectory of
// every run lands in the trace and the benchtables manifest.
func S2ScaleFloodEvent(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S2  Scale — event-driven flood, handler kernel (fanout=4)",
		"n", "rounds", "messages/round", "bytes/node-round", "max bits/node-round", "rounds/sec (wall)")
	ns := o.sizes([]int{10000, 100000}, []int{100000, 1000000})
	const fanout, rounds = 4, 8
	rows := make([][]string, 0, len(ns))
	for _, n := range ns {
		net := sim.NewNetwork(sim.Config{Seed: cellSeed(o.Seed, uint64(n)), Shards: o.Shards, SizeHint: n, Latency: o.Latency})
		if o.Trace != nil {
			// Metrics-only and flight-recorder tracing keep the kernel's
			// streaming-histogram path (no per-round percentile sort), so
			// attaching here stays viable at n=1M.
			net.SetTracer(o.Trace.Tracer(fmt.Sprintf("%s/n%d", o.Exp, n)))
		}
		idBits := sim.IDBits(n)
		buildFlood(net, n, fanout, idBits)
		start := time.Now()
		net.Run(rounds)
		wall := time.Since(start)
		net.Shutdown()
		var msgs int
		var bits, maxBits int64
		for _, w := range net.Work() {
			msgs += w.Messages
			bits += w.TotalBits
			if w.MaxNodeBits > maxBits {
				maxBits = w.MaxNodeBits
			}
		}
		bytesPerNode := float64(bits) / 8 / float64(n) / float64(rounds)
		roundsPerSec := float64(rounds) / wall.Seconds()
		rows = append(rows, metrics.Row(n, rounds, msgs/rounds,
			fmt.Sprintf("%.1f", bytesPerNode), maxBits,
			fmt.Sprintf("%.1f", roundsPerSec)))
		if o.Trace != nil {
			o.Trace.ScaleSpan(o.Exp, n, rounds, roundsPerSec, bytesPerNode, start)
		}
	}
	t.AddRows(rows)
	if o.Progress != nil {
		o.Progress.AddCells(o.Exp, len(ns))
		for range ns {
			o.Progress.CellDone(o.Exp)
		}
	}
	return t
}

// MaskWallClock blanks every wall-clock column of a table (headers
// containing "(wall)"), so renderings can be compared byte-for-byte
// across machines, execution modes, and shard counts. It returns the
// table for chaining and is a no-op on tables without such a column.
func MaskWallClock(t *metrics.Table) *metrics.Table {
	for i := 0; ; i++ {
		i = t.FindColumnFrom("(wall)", i)
		if i < 0 {
			return t
		}
		t.MaskColumn(i, "-")
	}
}
