package exp

import (
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

// floodWork is the simulator's work accounting of one flood network over
// all its rounds.
type floodWork struct {
	msgs          int
	bits, maxBits int64
}

const floodFanout, floodRounds = 4, 8

// runFlood is S2's cell: floodRounds rounds on one network of n flood
// nodes (hint is sim.Config.SizeHint, which moves no count).
func runFlood(o Options, n, hint int) floodWork {
	net := sim.NewNetwork(sim.Config{Seed: cellSeed(o.Seed, uint64(n)), SizeHint: hint, Latency: o.Latency})
	if o.Trace != nil {
		// The recorder's tracer streams each round's samples into
		// histograms (no per-round percentile sort), so attaching here
		// stays viable at n=1M.
		net.SetTracer(o.Trace.Tracer(o.Exp))
	}
	h := floodHandler(n, floodFanout, sim.IDBits(n))
	for v := 0; v < n; v++ {
		net.SpawnHandler(sim.NodeID(v+1), h)
	}
	net.Run(floodRounds)
	net.Shutdown()
	var w floodWork
	for _, rw := range net.Work() {
		w.msgs += rw.Messages
		w.bits += rw.TotalBits
		w.maxBits = max(w.maxBits, rw.MaxNodeBits)
	}
	return w
}

// S2ScaleFloodEvent runs flood rounds on a single network at the sizes
// the ROADMAP's production-scale goal calls for, up to n = 1,000,000
// nodes: every node sends fanout messages to random targets per round,
// the regime the kernel's dense-slot layout is built for. Every column
// is the simulator's work accounting (bytes/node-round is sent+received
// communication averaged over nodes and rounds), so the table is a pure
// function of the seed. The kernel's round rate is the ledger's
// kernel_flood workload.
func S2ScaleFloodEvent(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S2  Scale — event-driven flood, handler kernel (fanout=4)",
		"n", "rounds", "messages/round", "bytes/node-round", "max bits/node-round").
		Format("bytes/node-round", "%.1f")
	ns := o.sizes([]int{10000, 100000}, []int{10000, 100000, 1000000})
	// One network at a time: the cells here are memory-heavy, so the
	// sweep runs serially regardless of Procs.
	o.Procs = 1
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		w := runFlood(o, n, n)
		return [][]any{{n, floodRounds, w.msgs / floodRounds, float64(w.bits) / 8 / float64(n) / floodRounds, w.maxBits}}
	})
}

// MaskWallClock returns t unchanged: no table has a wall-clock column.
// It is kept only for bench/workloads.go's digest until ROADMAP 1(c).
func MaskWallClock(t *metrics.Table) *metrics.Table { return t }
