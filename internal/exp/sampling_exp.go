package exp

import (
	"math"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
)

// expParams returns the sampling parameters used across the
// experiments: d = 8, α = 2, ε = 1, c = 2. The slack (2+ε)^{T−i} with
// ε = 1 and c·log n ≥ 2·log₂ n final budgets keeps the per-node
// failure probability far below 1/n (Lemma 7) at every sweep size.
func expParams(o Options, n int) sampling.HGraphParams {
	return sampling.HGraphParams{N: n, D: 8, Alpha: 2, Epsilon: 1, C: 2,
		Latency: o.Latency, Reliable: o.Reliable}
}

// E1RapidSamplingHGraph measures Theorem 2's claims on ℍ-graphs:
// rounds (O(log log n)), samples per node (≥ β log n), total-variation
// distance of the pooled samples to uniform, and protocol failures.
func E1RapidSamplingHGraph(o Options) *metrics.Table {
	t := metrics.NewTable("E1  Theorem 2 — rapid node sampling in H-graphs (d=8, alpha=2, eps=1, c=2)",
		"n", "rounds", "loglog n", "samples/node", "TV", "3x envelope", "failures").Format("loglog n", "%.2f")
	ns := o.sizes([]int{128, 256}, []int{256, 512, 1024, 2048})
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		p := expParams(o, n)
		h := hgraph.Random(rng.New(cellSeed(o.Seed, uint64(n))), n, p.D)
		res := sampling.RapidHGraph(o.Seed^uint64(n), h, p)
		tv, env := metrics.PooledTV(res.Samples, n)
		return [][]any{{n, res.Rounds, math.Log2(math.Log2(float64(n))), p.Samples(), tv, env, res.Failures}}
	})
}

// E2CommunicationWork measures Theorem 2's communication-work bound:
// the peak per-node per-round bits against the paper's
// O(log^{2+log(2+ε)} n) envelope.
func E2CommunicationWork(o Options) *metrics.Table {
	t := metrics.NewTable("E2  Theorem 2 — communication work per node per round",
		"n", "max bits/node-round", "log^k n envelope", "ratio", "total Mbits")
	ns := o.sizes([]int{128, 256}, []int{256, 512, 1024, 2048})
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		p := expParams(o, n)
		h := hgraph.Random(rng.New(cellSeed(o.Seed, uint64(n))), n, p.D)
		res := sampling.RapidHGraph(o.Seed^uint64(n), h, p)
		k := 2 + math.Log2(2+p.Epsilon)
		env := metrics.PolylogEnvelope(n, k, 1)
		return [][]any{{n, res.MaxNodeBits, env, float64(res.MaxNodeBits) / env, float64(res.TotalBits) / 1e6}}
	})
}

// E3RapidSamplingHypercube measures Theorem 3 on the binary hypercube:
// rounds, exact uniformity (TV against the envelope), failures.
func E3RapidSamplingHypercube(o Options) *metrics.Table {
	t := metrics.NewTable("E3  Theorem 3 — rapid node sampling in the hypercube (eps=1, c=2)",
		"dim", "n", "rounds", "samples/node", "TV", "3x envelope", "failures")
	dims := o.sizes([]int{4}, []int{2, 4, 8})
	return sweep(o, t, len(dims), func(cell int) [][]any {
		dim := dims[cell]
		p := sampling.HypercubeParams{Dim: dim, Epsilon: 1, C: 2, Latency: o.Latency}
		res := sampling.RapidHypercube(o.Seed^uint64(dim), p)
		n := 1 << dim
		tv, env := metrics.PooledTV(res.Samples, n)
		return [][]any{{dim, n, res.Rounds, p.Samples(), tv, env, res.Failures}}
	})
}

// E4RapidVsWalk compares the rapid primitives against the classic
// distributed random-walk samplers: rounds and the speed-up factor,
// which must grow like log n / log log n (the paper's exponential
// improvement over Das Sarma et al.).
func E4RapidVsWalk(o Options) *metrics.Table {
	t := metrics.NewTable("E4  Rapid sampling vs plain random walks (who wins, by what factor)",
		"topology", "n", "walk rounds", "rapid rounds", "speed-up", "walk TV", "rapid TV").Format("speed-up", "%.1fx")
	ns := o.sizes([]int{128}, []int{256, 1024, 2048})
	dims := o.sizes([]int{4}, []int{4, 8})
	return sweep(o, t, len(ns)+len(dims), func(cell int) [][]any {
		if cell < len(ns) {
			n := ns[cell]
			p := expParams(o, n)
			h := hgraph.Random(rng.New(cellSeed(o.Seed, uint64(n))), n, p.D)
			steps := p.WalkTarget()
			base := sampling.BaselineWalkHGraph(o.Seed^uint64(n), h, 4, steps)
			rapid := sampling.RapidHGraph(o.Seed^uint64(n)+1, h, p)
			return [][]any{{"H-graph", n, base.Rounds, rapid.Rounds, float64(base.Rounds) / float64(rapid.Rounds),
				tvOf(base.Samples, n), tvOf(rapid.Samples, n)}}
		}
		dim := dims[cell-len(ns)]
		p := sampling.DefaultHypercubeParams(dim)
		base := sampling.BaselineWalkHypercube(o.Seed^uint64(dim), dim, 4)
		rapid := sampling.RapidHypercube(o.Seed^uint64(dim)+1, p)
		n := 1 << dim
		return [][]any{{"hypercube", n, base.Rounds, rapid.Rounds, float64(base.Rounds) / float64(rapid.Rounds),
			tvOf(base.Samples, n), tvOf(rapid.Samples, n)}}
	})
}

func tvOf(samples [][]int, n int) float64 {
	tv, _ := metrics.PooledTV(samples, n)
	return tv
}

// E5SuccessProbability sweeps the budget constant c downward and the
// slack ε toward zero: Lemma 7 predicts zero failures for healthy
// budgets and rising extraction failures as the headroom vanishes.
func E5SuccessProbability(o Options) *metrics.Table {
	t := metrics.NewTable("E5  Lemma 7 — failure injection by budget undersizing (n=256, d=8)",
		"epsilon", "c", "m_0", "failures", "fail/node")
	n := 256
	r := rng.New(o.Seed)
	h := hgraph.Random(r, n, 8)
	cases := []struct{ eps, c float64 }{
		{1, 1}, {0.5, 1}, {0.25, 0.5}, {0.05, 0.2}, {0.01, 0.05},
	}
	if o.Quick {
		cases = cases[:3]
	}
	return sweep(o, t, len(cases), func(cell int) [][]any {
		cse := cases[cell]
		p := sampling.HGraphParams{N: n, D: 8, Alpha: 2, Epsilon: cse.eps, C: cse.c}
		res := sampling.RapidHGraph(o.Seed, h, p)
		return [][]any{{cse.eps, cse.c, p.M(0), res.Failures, float64(res.Failures) / float64(n)}}
	})
}

// A1BudgetAblation contrasts the geometric budget schedule of Lemma 7
// with a flat schedule holding the same final sample count: the flat
// schedule starves the serve phase and fails, at lower communication.
func A1BudgetAblation(o Options) *metrics.Table {
	t := metrics.NewTable("A1  Ablation — geometric vs flat sampling budgets (n=512, d=8)",
		"schedule", "epsilon", "m_0", "failures", "max bits/node-round")
	n := 512
	r := rng.New(o.Seed)
	h := hgraph.Random(r, n, 8)
	epss := o.sizes([]int{1}, []int{1, 2, 4})
	return sweep(o, t, 2*len(epss), func(cell int) [][]any {
		eps := epss[cell/2]
		flat := cell%2 == 1
		epsilon := float64(eps) / 4
		if epsilon > 1 {
			epsilon = 1
		}
		p := sampling.HGraphParams{N: n, D: 8, Alpha: 2, Epsilon: epsilon, C: 1, FlatBudget: flat}
		res := sampling.RapidHGraph(o.Seed^uint64(eps), h, p)
		name := "geometric"
		if flat {
			name = "flat"
		}
		return [][]any{{name, epsilon, p.M(0), res.Failures, res.MaxNodeBits}}
	})
}

// E14PointerDoubling demonstrates the mechanism behind Lemma 4's lower
// bound: nodes on a cycle repeatedly introduce their known contacts to
// each other; the farthest node (distance n/2) becomes known after
// ≈ log₂(n/2) rounds — and no algorithm can beat that. The sweep stops
// at n = 256 because the protocol's final rounds are inherently
// quadratic in communication (the paper: "the communication work per
// round when using message passing is huge towards the end").
func E14PointerDoubling(o Options) *metrics.Table {
	t := metrics.NewTable("E14  Lemma 4 — pointer doubling across a cycle",
		"n", "distance", "rounds to know antipode", "log2(distance)").Format("log2(distance)", "%.1f")
	ns := o.sizes([]int{64}, []int{64, 128, 256})
	return sweep(o, t, len(ns), func(cell int) [][]any {
		n := ns[cell]
		rounds := pointerDoublingRounds(sim.NewNetwork(sim.Config{Seed: o.Seed}), n)
		return [][]any{{n, n / 2, rounds, math.Log2(float64(n / 2))}}
	})
}

// pointerDoublingRounds runs the introduce-all-contacts protocol on an
// n-cycle over net until node 0 knows its antipode, returning the round
// count. The horizon ⌈log₂ n⌉+2 always suffices: the knowledge radius
// doubles every round. A node's contacts are a membership table scanned
// in ascending order, so each message's id list and the order of the
// sends are a function of the protocol alone.
func pointerDoublingRounds(net *sim.Network, n int) int {
	type intro struct{ IDs []int32 }
	found := 0
	antipode := n / 2
	idBits := sim.IDBits(n)
	horizon := int(math.Ceil(math.Log2(float64(n)))) + 2
	known := make([][]bool, n) // known[v][w]: v has w's id
	contacts := make([]int, n) // number of true entries of known[v]
	for v := range known {
		known[v] = make([]bool, n)
		known[v][(v+1)%n], known[v][(v+n-1)%n] = true, true
		contacts[v] = 2
	}
	node := sim.HandlerFunc(func(ctx *sim.Ctx, inbox []sim.Message) bool {
		v := int(ctx.ID()) - 1
		mine := known[v]
		for _, m := range inbox {
			if in, ok := m.Payload.(intro); ok {
				for _, w := range in.IDs {
					if int(w) != v && !mine[w] {
						mine[w] = true
						contacts[v]++
					}
				}
			}
		}
		// The inbox answers the previous round's sends.
		if v == 0 && found == 0 && mine[antipode] {
			found = ctx.Round() - 1
		}
		if ctx.Round() > horizon {
			return false
		}
		// Send the full contact list to every contact; once everything
		// is known nothing new can be learned, so stop contributing to
		// the quadratic blow-up.
		if contacts[v] < n-1 {
			list := make([]int32, 0, contacts[v])
			for w, ok := range mine {
				if ok {
					list = append(list, int32(w))
				}
			}
			for _, w := range list {
				ctx.Send(sim.NodeID(w+1), intro{IDs: list}, len(list)*idBits)
			}
		}
		return true
	})
	for v := 0; v < n; v++ {
		net.SpawnHandler(sim.NodeID(v+1), node)
	}
	net.Run(horizon + 1)
	net.Shutdown()
	return found
}
