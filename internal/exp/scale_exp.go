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

// floodWork is what one flood network did: the simulator's work
// accounting over all rounds, and how long net.Run ran.
type floodWork struct {
	msgs          int
	bits, maxBits int64
	wall          time.Duration
}

const floodFanout, floodRounds = 4, 8

// runFlood is the cell S1 and S2 share: floodRounds rounds on one
// network of n flood nodes (hint is sim.Config.SizeHint).
func runFlood(o Options, n, hint int) floodWork {
	net := sim.NewNetwork(sim.Config{Seed: cellSeed(o.Seed, uint64(n)), SizeHint: hint, Latency: o.Latency})
	if o.Trace != nil {
		// Metrics-only and flight-recorder tracing keep the kernel's
		// streaming-histogram path (no per-round percentile sort), so
		// attaching here stays viable at n=1M.
		net.SetTracer(o.Trace.Tracer(fmt.Sprintf("%s/n%d", o.Exp, n)))
	}
	h := floodHandler(n, floodFanout, sim.IDBits(n))
	for v := 0; v < n; v++ {
		net.SpawnHandler(sim.NodeID(v+1), h)
	}
	start := time.Now()
	net.Run(floodRounds)
	w := floodWork{wall: time.Since(start)}
	net.Shutdown()
	for _, rw := range net.Work() {
		w.msgs += rw.Messages
		w.bits += rw.TotalBits
		w.maxBits = max(w.maxBits, rw.MaxNodeBits)
	}
	return w
}

// S1ScaleFlood exercises one simulated network at the sizes the
// ROADMAP's production-scale goal calls for (related reproductions of
// dynamic overlays evaluate at hundreds of thousands of nodes). Every
// node picks fanout random known targets per round, the regime the
// kernel's dense-slot layout is built for. All reported columns are
// deterministic at a fixed seed — messages and bits come from the
// simulator's work accounting, never from wall time — so the table is
// byte-identical for any Procs setting.
func S1ScaleFlood(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S1  Scale — flood rounds on a single network (fanout=4)",
		"n", "rounds", "messages/round", "total Mbits", "max bits/node-round").Format("total Mbits", "%.2f")
	ns := o.sizes([]int{1000, 10000}, []int{10000, 100000})
	// One network at a time: the cells here are memory-heavy, so the
	// sweep runs serially regardless of Procs.
	o.Procs = 1
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		w := runFlood(o, n, 0)
		return [][]any{{n, floodRounds, w.msgs / floodRounds, float64(w.bits) / 1e6, w.maxBits}}
	})
}

// S2ScaleFloodEvent measures the event-driven handler kernel at the
// sizes the goroutine-per-node design could not reach: flood rounds on
// a single network up to n = 1,000,000 nodes. All columns except the
// last are deterministic work-accounting quantities (bytes/node-round
// is total sent+received communication averaged over nodes and rounds);
// the final column is the measured wall-clock round throughput of the
// net.Run call, which varies by machine — regression tests comparing
// tables across execution modes or -procs values mask it (see
// MaskWallClock). The table is the record of the per-n throughput.
func S2ScaleFloodEvent(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S2  Scale — event-driven flood, handler kernel (fanout=4)",
		"n", "rounds", "messages/round", "bytes/node-round", "max bits/node-round", "rounds/sec (wall)").
		Format("bytes/node-round", "%.1f").Format("rounds/sec (wall)", "%.1f").Wall("rounds/sec (wall)")
	ns := o.sizes([]int{10000, 100000}, []int{100000, 1000000})
	// Memory-heavy, one network at a time, as in S1.
	o.Procs = 1
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		w := runFlood(o, n, n)
		return [][]any{{n, floodRounds, w.msgs / floodRounds, float64(w.bits) / 8 / float64(n) / floodRounds,
			w.maxBits, floodRounds / w.wall.Seconds()}}
	})
}

// MaskWallClock blanks every column of t that its driver tagged Wall
// (metrics.Table.MaskWall), so renderings can be compared byte-for-byte
// across machines, execution modes, and -procs values. The tag, not the
// header text, decides. It returns the table for chaining.
func MaskWallClock(t *metrics.Table) *metrics.Table { return t.MaskWall() }
