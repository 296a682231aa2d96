package sampling

import (
	"cmp"
	"math/bits"
	"slices"

	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

type hcReq struct {
	Js []int16 // one entry per request: the dimension index j
}

type hcRespPair struct {
	V int32
	J int16
}

type hcResp struct {
	Pairs []hcRespPair
}

// RapidHypercube runs Algorithm 2 (rapid node sampling in the binary
// hypercube) as a distributed protocol. The cube dimension must be a
// power of two (the paper's d = 2^k assumption). After T = log₂ d
// iterations every node's list M₁ holds p.Samples() vertices whose
// coordinates 1..d were all chosen independently and uniformly —
// i.e. exactly uniform samples of V (Lemma 8) — using p.Rounds() =
// O(log log n) communication rounds.
func RapidHypercube(seed uint64, p HypercubeParams) *RapidResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// Phase 1: an entry of M_j is n_j(u) or u by a fair coin — a walk
	// randomizing exactly coordinate j.
	fill := func(r *rng.RNG, u, j int) int32 {
		if r.Coin() {
			return int32(hypercube.Neighbor(hypercube.Vertex(u), j))
		}
		return int32(u)
	}
	cfg := sim.Config{Seed: seed, Latency: p.Latency}
	return rapidCube(cfg, hypercube.N(p.Dim), p.Dim, p.M, fill)
}

// rapidCube is the driver of Algorithm 2 on a cube of n vertices and
// d = 2^T dimensions with budget schedule m(0) … m(T). fill draws one
// Phase-1 entry of M_j at vertex u; it is all that differs between the
// binary and the k-ary cube.
func rapidCube(cfg sim.Config, n, d int, m func(i int) int, fill func(r *rng.RNG, u, j int) int32) *RapidResult {
	T := bits.TrailingZeros(uint(d))
	run := &cubeRun{d: d, m: make([]int, T+1), idBits: sim.IDBits(n), fill: fill,
		res:      &RapidResult{Samples: make([][]int, n), Rounds: 2*T + 1},
		failures: make([]int, n)}
	for i := range run.m {
		run.m[i] = m(i)
	}
	net := newNetwork(cfg)
	simulate(net, n, run.res.Rounds, func(v int) sim.Handler { return &cubeNode{run: run, u: v} })
	run.res.collect(net, run.failures)
	return run.res
}

// cubeRun is what the nodes of one Algorithm 2 run share.
type cubeRun struct {
	d        int
	m        []int // budget schedule m_0 … m_T
	idBits   int
	fill     func(r *rng.RNG, u, j int) int32
	res      *RapidResult
	failures []int // per vertex: extractions from an empty list
}

type cubeReq struct {
	target int32
	j      int16
}

// cubeNode is one node of Algorithm 2. Round 1 is Phase 1 plus the
// first requests; iteration i then serves in round 2i and refills in
// round 2i+1, which is also where the node departs after iteration T.
type cubeNode struct {
	run  *cubeRun
	u    int
	step int               // rounds completed
	M    []Multiset[int32] // M[j-1] is the paper's M_j
	reqs []cubeReq         // sendRequests' scratch
}

// extract draws one entry of M_j, substituting the node itself (a
// counted failure) when the list is empty — or when there is no such
// list: under a latency model with spread a request can arrive an
// iteration late and name a block past dimension d.
func (nd *cubeNode) extract(r *rng.RNG, j int) int32 {
	if j <= nd.run.d {
		if w, ok := nd.M[j-1].Extract(r); ok {
			return w
		}
	}
	nd.run.failures[nd.u]++
	return int32(nd.u)
}

// sendRequests is Phase 2 of iteration i: for every list index
// j ≡ 1 (mod 2^i), extract m_i walk endpoints from M_j and ask each for
// an extension in dimension block j+2^{i-1}..j+2^i−1, one message per
// distinct endpoint, in ascending endpoint order.
func (nd *cubeNode) sendRequests(ctx *sim.Ctx, i int) {
	run, r := nd.run, ctx.RNG()
	reqs := nd.reqs[:0]
	for j := 1; j <= run.d; j += 1 << i {
		for k := 0; k < run.m[i]; k++ {
			reqs = append(reqs, cubeReq{target: nd.extract(r, j), j: int16(j)})
		}
	}
	nd.reqs = reqs
	slices.SortFunc(reqs, func(a, b cubeReq) int {
		if a.target != b.target {
			return cmp.Compare(a.target, b.target)
		}
		return cmp.Compare(a.j, b.j)
	})
	// The round's Js payloads are carved out of one array; it is never
	// reused, the messages keep pointing into it.
	js := make([]int16, len(reqs))
	for k, rq := range reqs {
		js[k] = rq.j
	}
	for a := 0; a < len(reqs); {
		b := a + 1
		for b < len(reqs) && reqs[b].target == reqs[a].target {
			b++
		}
		ctx.Send(vertexID(int(reqs[a].target)), hcReq{Js: js[a:b:b]}, (b-a)*run.idBits)
		a = b
	}
}

func (nd *cubeNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	run := nd.run
	nd.step++
	i := nd.step / 2 // the iteration this round belongs to
	switch {
	case nd.step == 1:
		// Phase 1 (local): fill every M_j with m_0 entries.
		r, m0 := ctx.RNG(), run.m[0]
		nd.M = make([]Multiset[int32], run.d)
		buf := make([]int32, run.d*m0)
		for j := 1; j <= run.d; j++ {
			lo := (j - 1) * m0
			nd.M[j-1].Reset(buf[lo : lo : lo+m0])
			for k := 0; k < m0; k++ {
				nd.M[j-1].Add(run.fill(r, nd.u, j))
			}
		}
		nd.sendRequests(ctx, 1)
	case nd.step&1 == 0:
		// Phase 3: a request (w, j) is served from M_{j+2^{i-1}}, whose
		// entries have coordinates j+2^{i-1}..j+2^i−1 randomized
		// relative to us.
		r, half := ctx.RNG(), 1<<(i-1)
		for _, m := range inbox {
			rq, ok := m.Payload.(hcReq)
			if !ok {
				continue
			}
			pairs := make([]hcRespPair, len(rq.Js))
			for k, j := range rq.Js {
				pairs[k] = hcRespPair{V: nd.extract(r, int(j)+half), J: j}
			}
			ctx.Send(m.From, hcResp{Pairs: pairs}, len(pairs)*run.idBits)
		}
	default:
		// Phase 4: clear all lists and refill from the responses; Phase 2
		// of the next iteration shares this round.
		for j := range nd.M {
			nd.M[j].Clear()
		}
		for _, m := range inbox {
			if rp, ok := m.Payload.(hcResp); ok {
				for _, pr := range rp.Pairs {
					nd.M[pr.J-1].Add(pr.V)
				}
			}
		}
		if i < len(run.m)-1 {
			nd.sendRequests(ctx, i+1)
			break
		}
		out := make([]int, nd.M[0].Len())
		for k, w := range nd.M[0].Items() {
			out[k] = int(w)
		}
		run.res.Samples[nd.u] = out
		return false
	}
	return true
}
