package main

import (
	"runtime"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/graph"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/obs"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
	"overlaynet/internal/trace"
)

// Probes time one public function of one layer on a fixed input, for
// the layers no workload can separate from outside. Each stays under
// 1.5 s at full size. They run in the traced pass only and never feed
// an end-to-end metric.

// perUnit times f and returns ns per unit of its work.
func perUnit(units int, f func()) float64 {
	t := time.Now()
	f()
	return float64(time.Since(t)) / float64(units)
}

func msOf(f func()) float64 { return perUnit(1, f) / 1e6 }

type floodCost struct {
	nsPerMsg, allocsPerRound, liveBytesPerNode, deferredPerMsg float64
}

// probeFlood is the differential kernel probe: the kernel_flood
// workload's network at a smaller n with one thing changed.
func probeFlood(o floodOpts, rounds int) floodCost {
	base := liveHeap()
	net, _ := floodNet(o)
	defer net.Shutdown()
	net.Run(5)
	live := liveHeap()
	m0 := memStats().Mallocs
	t := time.Now()
	net.Run(rounds)
	wall := float64(time.Since(t))
	allocs := memStats().Mallocs - m0
	var msgs int64
	for _, w := range net.Work()[5:] {
		msgs += int64(w.Messages)
	}
	c := floodCost{
		nsPerMsg:       wall / float64(msgs),
		allocsPerRound: float64(allocs) / float64(rounds),
		deferredPerMsg: float64(net.DeferredMessages()) / float64(msgs),
	}
	if live > base {
		c.liveBytesPerNode = float64(live-base) / float64(o.n)
	}
	return c
}

// knowledgeGraph builds a graph shaped like the Section 5 knowledge
// graph at n=4096: 256 groups of 16, a clique inside each group and a
// complete bipartite graph across each hypercube edge.
func knowledgeGraph(groups, size, dim int) *graph.Graph {
	g := graph.New(groups * size)
	for x := 0; x < groups; x++ {
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				g.AddEdge(x*size+i, x*size+j)
			}
		}
		for b := 0; b < dim; b++ {
			if y := x ^ 1<<b; y > x {
				for i := 0; i < size; i++ {
					for j := 0; j < size; j++ {
						g.AddEdge(x*size+i, y*size+j)
					}
				}
			}
		}
	}
	return g
}

// pairedRatio alternates chunks of work on the plain baseline and on a
// variant and returns the median of the chunk-by-chunk time ratios
// variant/base: the machine's speed drifts over seconds, and pairing
// makes the drift hit both sides of every ratio alike.
func pairedRatio(chunks int, base, variant func()) float64 {
	ratios := make([]float64, chunks)
	for i := range ratios {
		b := perUnit(1, base)
		ratios[i] = ratio(perUnit(1, variant), b)
	}
	return median(ratios)
}

// probeSink keeps the results of the probes' loops live.
var probeSink uint64

func runProbes(seed uint64, sc scale, out map[string]float64) {
	r := rng.New(seed)

	draws := sc.pick(10000000, 2000000, 100000)
	out["rng.uint64n_ns"] = perUnit(draws, func() {
		for i := 0; i < draws; i++ {
			probeSink += r.Uint64n(1000003)
		}
	})

	dim := sc.pick(8, 8, 4)
	kg := knowledgeGraph(1<<dim, 16, dim)
	alive := make([]bool, kg.N())
	for i := range alive {
		alive[i] = r.Float64() < 0.6
	}
	reps := sc.pick(20, 5, 2)
	out["graph.connected_restricted_ns_per_edge"] = perUnit(reps*kg.NumEdges(), func() {
		for i := 0; i < reps; i++ {
			kg.IsConnectedRestricted(alive)
		}
	})

	hn := sc.pick(1024, 1024, 256)
	out["hgraph.random_ms"] = msOf(func() { hgraph.Random(r, 4*hn, 8) })
	h := hgraph.Random(rng.New(seed), hn, 8)
	out["graph.second_eigenvalue_ms"] = msOf(func() { h.Graph().SecondEigenvalue(r, 100) })

	// sampling: the BenchmarkRapid* inputs.
	var res *sampling.RapidResult
	hp := sampling.HGraphParams{N: hn, D: 8, Alpha: 2, Epsilon: 1, C: 1, Shards: 1}
	out["sampling.rapid_hgraph_ms"] = msOf(func() { res = sampling.RapidHGraph(seed, h, hp) })
	out["sampling.hgraph_total_bits"] = float64(res.TotalBits)
	cube := sampling.DefaultHypercubeParams(sc.pick(8, 8, 4))
	cube.Shards = 1
	out["sampling.rapid_hypercube_ms"] = msOf(func() { sampling.RapidHypercube(seed, cube) })
	out["sampling.rapid_kary_ms"] = msOf(func() {
		sampling.RapidKAry(seed, sampling.KAryParams{K: 3, Dim: 4, Epsilon: 1, C: 2, Shards: 1})
	})
	h256 := hgraph.Random(rng.New(seed), 256, 8)
	steps := sampling.DefaultHGraphParams(256, 8).WalkTarget()
	out["sampling.baseline_walk_ms"] = msOf(func() { sampling.BaselineWalkHGraph(seed, h256, 4, steps) })

	// fault: one decision per call, and the partition test with no
	// partition configured.
	spec := fault.Spec{Seed: seed, Drop: 0.05}
	inj := spec.Injector()
	calls := sc.pick(5000000, 1000000, 100000)
	dropped, cuts := 0, 0
	out["fault.deliveries_ns"] = perUnit(calls, func() {
		for i := 0; i < calls; i++ {
			if inj.Deliveries(i>>10, sim.NodeID(i&1023), sim.NodeID(i>>3&1023), uint64(i)) == 0 {
				dropped++
			}
		}
	})
	out["fault.drop_ratio"] = float64(dropped) / float64(calls)
	out["fault.cutsedge_idle_ns"] = perUnit(calls, func() {
		for i := 0; i < calls; i++ {
			if spec.CutsEdge(i>>10, uint64(i&1023), uint64(i>>3&1023)) {
				cuts++
			}
		}
	})

	// dos: one group-isolate decision at the overlay_dos_measured size.
	n5 := sc.pick(4096, 4096, 1024)
	snw := supernode.New(supernode.Config{Seed: seed, N: n5, MeasureEvery: -1, Shards: 1})
	snap := snw.Snapshot()
	snw.Close()
	probeSink += uint64(cuts)
	adv := &dos.GroupIsolate{Fraction: 0.4, R: r}
	sel := sc.pick(50, 20, 5)
	out["dos.select_blocked_ms"] = msOf(func() {
		for i := 0; i < sel; i++ {
			probeSink += uint64(len(adv.SelectBlocked(i, n5, snap)))
		}
	}) / float64(sel)

	hist := obs.NewRegistry(0).Histogram("bench_probe", "")
	out["obs.hist_observe_ns"] = perUnit(calls, func() {
		for i := 0; i < calls; i++ {
			hist.Observe(int64(i & 0xffff))
		}
	})

	// The kernel's other paths and everything that can be attached to
	// it, each against the detached sync flood at the same n.
	n := sc.pick(20000, 20000, 2000)
	rounds := sc.pick(100, 30, 10)
	out["trace.detached_allocs_per_round"] = probeFlood(floodOpts{n: n, seed: seed}, rounds).allocsPerRound
	out["sim.ns_per_msg_const1"] = probeFlood(floodOpts{n: n, seed: seed, latency: "const:1"}, rounds).nsPerMsg
	spread := probeFlood(floodOpts{n: n, seed: seed, latency: "uniform:1,3"}, rounds)
	out["sim.ns_per_msg_spread"] = spread.nsPerMsg
	out["sim.allocs_per_round_spread"] = spread.allocsPerRound
	out["sim.live_bytes_per_node_spread"] = spread.liveBytesPerNode
	out["sim.deferred_per_msg"] = spread.deferredPerMsg
	out["sim.coroutine_ns_per_msg"] = probeFlood(floodOpts{n: n / 2, seed: seed, coroutine: true}, rounds).nsPerMsg
	if runtime.NumCPU() >= 2 {
		out["sim.sharded2_ns_per_msg"] = probeFlood(floodOpts{n: n, seed: seed, shards: 2}, rounds).nsPerMsg
	}
	idle := probeFlood(floodOpts{n: n, seed: seed, reliable: true}, sc.pick(20, 10, 5))
	out["reliable.idle_ns_per_msg"] = idle.nsPerMsg
	out["reliable.idle_allocs_per_msg"] = idle.allocsPerRound / float64(floodFanout*n)
	out["reliable.idle_live_bytes_per_node"] = idle.liveBytesPerNode
	engine := func() *audit.Engine { return audit.NewEngine("bench", seed, 1, nil) }
	floodRatio := func(tracer sim.Tracer) float64 {
		plain, _ := floodNet(floodOpts{n: n, seed: seed})
		defer plain.Shutdown()
		attached, _ := floodNet(floodOpts{n: n, seed: seed, tracer: tracer})
		defer attached.Shutdown()
		plain.Run(5)
		attached.Run(5)
		return pairedRatio(rounds/5, func() { plain.Run(5) }, func() { attached.Run(5) })
	}
	out["audit.workauditor_ratio"] = floodRatio(audit.NewWorkAuditor(engine(), nil))
	out["trace.attached_ratio"] = floodRatio(trace.New().Tracer("bench"))
	out["trace.metrics_attached_ratio"] = floodRatio(trace.New().WithMetrics(obs.NewRegistry(0)).Tracer("bench"))

	// core with things attached, against plain, churn-free.
	cfg := core.Config{Seed: seed, N0: sc.pick(256, 256, 64), D: 8, Alpha: 2, Epsilon: 1, Shards: 1}
	coreRatio := func(variant core.Config, e *audit.Engine) float64 {
		plain, attached := core.NewNetwork(cfg), core.NewNetwork(variant)
		defer plain.Shutdown()
		defer attached.Shutdown()
		if e != nil {
			attached.SetAudit(e)
		}
		plain.RunEpoch(nil, nil)
		attached.RunEpoch(nil, nil)
		return pairedRatio(sc.pick(4, 2, 1), func() { plain.RunEpoch(nil, nil) }, func() { attached.RunEpoch(nil, nil) })
	}
	out["core.audit_attached_ratio"] = coreRatio(cfg, engine())
	withReliable := cfg
	withReliable.Reliable = reliable.On()
	out["core.reliable_idle_ratio"] = coreRatio(withReliable, nil)

}
