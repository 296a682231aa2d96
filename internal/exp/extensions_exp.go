package exp

import (
	"math"

	"overlaynet/internal/dos"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
)

// A3ExpansionMatters runs the generic regular-graph sampler
// (RapidRegular) with identical walk lengths on an expander (H-graph)
// and on a torus: the paper's reliance on expansion (Lemma 2) is
// visible as sample locality — on the torus a Θ(log n)-step walk stays
// within ~sqrt(steps) of its origin while the expander mixes fully.
func A3ExpansionMatters(o Options) *metrics.Table {
	t := metrics.NewTable("A3  Ablation — the primitive needs expansion (identical walk lengths)",
		"graph", "n", "degree", "walk length", "mean dist to sample", "uniform mean dist", "locality ratio")
	sides := o.sizes([]int{12}, []int{16, 24, 32})
	return sweep(o, t, len(sides), func(cell int) [][]any {
		side := sides[cell]
		n := side * side
		walk := 1 << bitsCeilLog2(4*int(math.Log2(float64(n))))

		// Torus: poor expansion.
		adj := sampling.TorusAdjacency(side)
		p := sampling.HGraphParams{N: n, Epsilon: 1, C: 2, WalkOverride: walk}
		res := sampling.RapidRegular(o.Seed^uint64(side), adj, p)
		sum, cnt := 0.0, 0
		for v, s := range res.Samples {
			for _, w := range s {
				sum += float64(torusL1(side, v, w))
				cnt++
			}
		}
		uni := float64(side) / 2
		mean := sum / float64(cnt)
		rows := [][]any{{"torus", n, 4, walk, mean, uni, mean / uni}}

		// H-graph with the same degree-4 and walk length: full mixing,
		// measured as pooled TV at the noise floor.
		r := rng.New(o.Seed ^ uint64(side))
		h := hgraph.Random(r, n, 4)
		hadj := make([][]int, n)
		for v := 0; v < n; v++ {
			hadj[v] = h.Neighbors(v)
		}
		res2 := sampling.RapidRegular(o.Seed^uint64(side)+1, hadj, p)
		g := h.Graph()
		// Mean BFS distance from vertex 0 approximates the uniform
		// expectation on the expander.
		meanDist, uniDist := expanderSampleDistance(g.Neighbors, n, res2.Samples)
		return append(rows, []any{"H-graph", n, 4, walk, meanDist, uniDist, meanDist / uniDist})
	})
}

func bitsCeilLog2(x int) int {
	b := 0
	for v := 1; v < x; v <<= 1 {
		b++
	}
	return b
}

func torusL1(side, a, b int) int {
	dr := a/side - b/side
	if dr < 0 {
		dr = -dr
	}
	if side-dr < dr {
		dr = side - dr
	}
	dc := a%side - b%side
	if dc < 0 {
		dc = -dc
	}
	if side-dc < dc {
		dc = side - dc
	}
	return dr + dc
}

// expanderSampleDistance returns the mean BFS distance from each node
// to its samples, and the mean BFS distance to a uniform vertex.
func expanderSampleDistance(neighbors func(int) []int32, n int, samples [][]int) (mean, uniform float64) {
	// BFS from a few sources to estimate distances.
	sum, cnt := 0.0, 0
	uniSum, uniCnt := 0.0, 0
	for src := 0; src < n; src += n / 16 {
		dist := bfsAll(neighbors, n, src)
		for _, w := range samples[src] {
			sum += float64(dist[w])
			cnt++
		}
		for v := 0; v < n; v++ {
			uniSum += float64(dist[v])
			uniCnt++
		}
	}
	return sum / float64(cnt), uniSum / float64(uniCnt)
}

func bfsAll(neighbors func(int) []int32, n, src int) []int {
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// X1ChurnRateLimit probes the paper's open problem (§8): how much
// churn per reconfiguration can the split/merge network absorb? The
// sweep raises the per-epoch replacement fraction until protocol
// failures or disconnections appear.
func X1ChurnRateLimit(o Options) *metrics.Table {
	t := metrics.NewTable("X1  Extension — churn-rate limit of the split/merge network (n0=1024)",
		"churn/epoch", "epochs", "disc rounds", "stalls", "assign fails", "eq1 ok", "dim spread", "n final").
		Format("churn/epoch", "%d%%")
	n0 := o.size(512, 1024)
	fracs := o.sizes([]int{25}, []int{12, 25, 50, 75, 100})
	epochs := o.size(2, 4)
	return sweep(o, t, len(fracs), func(cell int) [][]any {
		f := fracs[cell]
		frac := float64(f) / 100
		nw := newSplitMerge(o.envDelivery(), splitmerge.Config{Seed: o.Seed, N0: n0})
		buf := &dos.Buffer{Lateness: 1}
		r := rng.New(o.Seed + uint64(f))
		for e := 0; e < epochs; e++ {
			// At 100% the method's clamp keeps 8 members to sponsor.
			nw.ReplaceMembers(r, int(frac*float64(nw.N())))
			nw.Run(nil, buf, nw.EpochRounds())
		}
		st := nw.StatsSnapshot()
		return [][]any{{f, epochs, st.Disconnected, st.Stalls, st.AssignFails,
			st.Eq1Violations == 0 && nw.Eq1Holds(), st.MaxDimSpread, nw.N()}}
	})
}

// X2CrashFailures explores the paper's §6 discussion of crash
// failures: a crashed node is permanently blocked (it can never be
// distinguished from a node under DoS attack). The live nodes must
// stay connected as long as every group keeps at least one live,
// available member; the sweep raises the crash fraction until group
// stalls appear.
func X2CrashFailures(o Options) *metrics.Table {
	t := metrics.NewTable("X2  Extension — permanent crash failures in the Section 5 network (n=1024)",
		"crashed frac", "rounds", "disconnected (live)", "stalls", "epochs completed")
	n := o.size(256, 1024)
	fracs := o.sizes([]int{20}, []int{10, 25, 40, 48})
	return sweep(o, t, len(fracs), func(cell int) [][]any {
		f := fracs[cell]
		frac := float64(f) / 100
		nw := newSupernode(o.envDelivery(), supernode.Config{Seed: o.Seed ^ uint64(f), N: n})
		r := rng.New(o.Seed + uint64(f))
		crashed := map[sim.NodeID]bool{}
		for len(crashed) < int(frac*float64(n)) {
			crashed[sim.NodeID(r.Intn(n)+1)] = true
		}
		rounds := o.size(nw.EpochRounds(), 3*nw.EpochRounds())
		for i := 0; i < rounds; i++ {
			nw.Step(crashed)
		}
		st := nw.StatsSnapshot()
		return [][]any{{frac, rounds, st.Disconnected, st.Stalls, nw.Epoch()}}
	})
}

// X4KAryNetwork runs the full Section 7.2 extension: the Section 5
// network generalized to a k-ary hypercube of supernode groups (the
// communication structure under the robust DHT), attacked by the
// group-isolate adversary in both lateness regimes.
func X4KAryNetwork(o Options) *metrics.Table {
	t := metrics.NewTable("X4  Extension — the reconfigured k-ary hypercube network (§7.2)",
		"k", "n", "supernodes", "epoch rounds", "lateness", "disc rounds", "stalls")
	cases := [][2]int{{2, 1024}, {3, 1024}, {4, 4096}}
	if o.Quick {
		cases = cases[1:2]
	}
	return sweep(o, t, len(cases)*2, func(cell int) [][]any {
		c := cases[cell/2]
		late := cell%2 == 0
		nw := newSupernode(o.envDelivery(), supernode.Config{Seed: o.Seed ^ uint64(c[0]), N: c[1], K: c[0]})
		lateness, st := isolate(nw, 0.4, rng.New(o.Seed+uint64(c[0])), late, 3)
		return [][]any{{c[0], c[1], nw.NSuper(), nw.EpochRounds(), lateness, st.Disconnected, st.Stalls}}
	})
}

// X3KAryRapidSampling validates the k-ary generalization of Algorithm
// 2 that the Section 7.2 DHT relies on: rounds stay O(log log n) and
// the samples are uniform over k^dim vertices.
func X3KAryRapidSampling(o Options) *metrics.Table {
	t := metrics.NewTable("X3  Extension — rapid node sampling on k-ary hypercubes (Definition 1)",
		"k", "dim", "n", "rounds", "samples/node", "TV", "3x envelope", "failures")
	cases := [][2]int{{3, 4}, {4, 4}, {3, 8}}
	if o.Quick {
		cases = cases[:1]
	}
	return sweep(o, t, len(cases), func(cell int) [][]any {
		c := cases[cell]
		p := sampling.KAryParams{K: c[0], Dim: c[1], Epsilon: 1, C: 2}
		res := sampling.RapidKAry(o.Seed^uint64(c[0]*100+c[1]), p)
		n := 1
		for i := 0; i < c[1]; i++ {
			n *= c[0]
		}
		tv, env := metrics.PooledTV(res.Samples, n)
		return [][]any{{c[0], c[1], n, res.Rounds, p.Samples(), tv, env, res.Failures}}
	})
}
