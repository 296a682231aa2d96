package sampling

import (
	"overlaynet/internal/hgraph"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
)

// RapidResult is the outcome of a rapid node sampling run.
type RapidResult struct {
	// Samples[v] holds the vertices sampled by node v (length m_T).
	Samples [][]int
	// Failures counts extraction-from-empty-multiset events across all
	// nodes and iterations; Lemma 7/9 make this zero w.h.p. for the
	// prescribed budgets.
	Failures int
	// Rounds is the number of communication rounds used.
	Rounds int
	// MaxNodeBits is the largest sent+received bits of any node in any
	// round (Theorem 2/3 bound this polylogarithmically).
	MaxNodeBits int64
	// TotalBits is the total communication volume.
	TotalBits int64
	// Deferred counts messages the discrete-event scheduler delivered
	// after their synchronous round+1 deadline (zero unless the params
	// carry a latency model with spread).
	Deferred int64
	// Retransmits and DeliveryFailures report the reliable layer's
	// activity when HGraphParams.Reliable is enabled: control-lane
	// retransmit copies sent, and messages whose budget ran out. Both
	// zero otherwise (and on a perfect network, where the layer stays
	// silent).
	Retransmits      int64
	DeliveryFailures int64
}

type reqBatch struct {
	Count int32
}

type respBatch struct {
	IDs []int32
}

// newNetwork builds the network a driver runs on. Only the golden tests
// replace it, to keep hold of that network and digest its work log,
// which no result struct carries.
var newNetwork = sim.NewNetwork

// vertexID maps a graph vertex to its sim id (ids start at 1).
func vertexID(v int) sim.NodeID { return sim.NodeID(v + 1) }

// simulate spawns node(v) for every vertex v < n, runs the network for
// the given number of rounds and shuts it down.
func simulate(net *sim.Network, n, rounds int, node func(v int) sim.Handler) {
	for v := 0; v < n; v++ {
		net.SpawnHandler(vertexID(v), node(v))
	}
	net.Run(rounds)
	net.Shutdown()
}

// collect folds the finished network's counters and the per-node
// failure tallies into the result.
func (res *RapidResult) collect(net *sim.Network, failures []int) {
	res.Deferred = net.DeferredMessages()
	rel := net.ReliabilityStats()
	res.Retransmits = rel.Retransmits
	res.DeliveryFailures = rel.Failures
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
		res.TotalBits += w.TotalBits
	}
	for _, f := range failures {
		res.Failures += f
	}
}

// rapidNode is one node of an Algorithm 1 run: its first round starts
// the HGraphSampler, the following 2·T() rounds feed it, and the node
// departs once its samples are in.
type rapidNode struct {
	s         HGraphSampler
	started   bool
	v         int
	neighbors func(v int) []int
	p         HGraphParams
	res       *RapidResult
	fail      *int
}

func (nd *rapidNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	if !nd.started {
		nd.started = true
		nd.s.Start(ctx, nd.p, nd.v, nd.neighbors(nd.v), vertexID, nd.fail, nil)
		return true
	}
	if nd.s.HandleRound(ctx, inbox, nil) {
		nd.res.Samples[nd.v] = nd.s.Samples()
		return false
	}
	return true
}

// rapidWalks is the driver of Algorithm 1 on any regular multigraph of
// n vertices, neighbors(v) being vertex v's neighbor list with
// multiplicity: p's fault injector, latency model and reliable
// endpoints are attached here, so every caller gets them.
func rapidWalks(seed uint64, n int, p HGraphParams, neighbors func(v int) []int) *RapidResult {
	net := newNetwork(sim.Config{Seed: seed, Shards: p.Shards, Latency: p.Latency})
	if inj := p.Faults.Injector(); inj != nil {
		net.SetInjector(inj)
	}
	stretch := 1
	if p.Reliable.Enabled() {
		stretch = p.Reliable.EffectiveStretch(p.Latency)
	}
	rounds := reliable.StretchedRounds(p.Rounds(), stretch)
	res := &RapidResult{Samples: make([][]int, n), Rounds: rounds}
	failures := make([]int, n)
	simulate(net, n, rounds, func(v int) sim.Handler {
		var hnd sim.Handler = &rapidNode{v: v, neighbors: neighbors, p: p, res: res, fail: &failures[v]}
		if p.Reliable.Enabled() {
			hnd = reliable.Wrap(seed, p.Reliable, stretch, hnd)
		}
		return hnd
	})
	res.collect(net, failures)
	return res
}

// RapidHGraph runs Algorithm 1 (rapid node sampling in ℍ-graphs) as a
// distributed protocol: every node samples p.Samples() vertices, each
// the endpoint of an independent simple random walk of length 2^T,
// which by Lemma 2 is almost uniform over V. The run takes
// p.Rounds() = O(log log n) communication rounds.
func RapidHGraph(seed uint64, h *hgraph.HGraph, p HGraphParams) *RapidResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return rapidWalks(seed, h.N(), p, h.Neighbors)
}
