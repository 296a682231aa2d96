package sampling

import (
	"overlaynet/internal/hgraph"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// WalkHGraph performs a centralized simple random walk of the given
// length on an ℍ-graph and returns the endpoint. This is the reference
// the distributed primitives are validated against: by Lemma 2 the
// endpoint of a ⌈2α·log_{d/4} n⌉-step walk is almost uniform.
func WalkHGraph(r *rng.RNG, h *hgraph.HGraph, start, steps int) int {
	v := start
	d := h.D()
	for s := 0; s < steps; s++ {
		// Simple random walk on the multigraph: pick one of the d
		// incident edge endpoints (with multiplicity) uniformly.
		e := r.Intn(d)
		c := h.Cycle(e / 2)
		if e%2 == 0 {
			v = c.Pred(v)
		} else {
			v = c.Succ(v)
		}
	}
	return v
}

// WalkHypercube performs the classic d-round coin-flip walk of Section
// 2.3 on the d-dimensional binary hypercube: in round i the token
// moves to n_i(v) with probability 1/2, else stays. The endpoint is
// exactly uniform over all 2^d vertices.
func WalkHypercube(r *rng.RNG, d int, start hypercube.Vertex) hypercube.Vertex {
	v := start
	for i := 1; i <= d; i++ {
		if r.Coin() {
			v = hypercube.Neighbor(v, i)
		}
	}
	return v
}

// TokenWalkResult is the outcome of a distributed token-walk baseline.
type TokenWalkResult struct {
	// Samples[v] are the ids sampled by node v (graph vertices).
	Samples [][]int
	// Rounds is the number of communication rounds used.
	Rounds int
	// MaxNodeBits is the largest per-node per-round communication work.
	MaxNodeBits int64
}

type walkToken struct {
	Origin int32
	Step   int32
}

type walkAnswer struct {
	Endpoint int32
}

// run executes a token-walk baseline, one node per vertex: the walk's
// Rounds communication rounds plus the round in which the origins read
// their answers.
func (res *TokenWalkResult) run(seed uint64, node func(v int) sim.Handler) {
	net := newNetwork(sim.Config{Seed: seed})
	simulate(net, len(res.Samples), res.Rounds+1, node)
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
	}
}

// BaselineWalkHGraph is the standard distributed random-walk sampler
// the paper improves upon (cf. Das Sarma et al.): every node launches k
// tokens that take `steps` simple-random-walk steps, one step per
// round; the final holder then reports its id to the origin directly
// (an overlay shortcut, 1 extra round). Rounds = steps + 1, i.e.
// Θ(log n) — exponentially slower than Algorithm 1's O(log log n).
func BaselineWalkHGraph(seed uint64, h *hgraph.HGraph, k, steps int) *TokenWalkResult {
	n, d := h.N(), h.D()
	res := &TokenWalkResult{Samples: make([][]int, n), Rounds: steps + 1}
	idBits := sim.IDBits(n)
	// The node program keeps nothing between rounds but its answers, so
	// one handler serves every vertex.
	walker := sim.HandlerFunc(func(ctx *sim.Ctx, inbox []sim.Message) bool {
		v := int(ctx.ID()) - 1
		r := ctx.RNG()
		moveToken := func(tok walkToken) {
			e := r.Intn(d)
			c := h.Cycle(e / 2)
			w := c.Succ(v)
			if e%2 == 0 {
				w = c.Pred(v)
			}
			ctx.Send(vertexID(w), tok, 2*idBits)
		}
		if ctx.Round() == 1 {
			for j := 0; j < k; j++ {
				moveToken(walkToken{Origin: int32(v), Step: 1})
			}
			return true
		}
		last := ctx.Round() > steps+1 // the walks are over; only answers are read
		for _, m := range inbox {
			switch t := m.Payload.(type) {
			case walkToken:
				switch {
				case last:
				case int(t.Step) >= steps:
					// Walk complete: report own id to origin.
					ctx.Send(vertexID(int(t.Origin)), walkAnswer{Endpoint: int32(v)}, idBits)
				default:
					t.Step++
					moveToken(t)
				}
			case walkAnswer:
				res.Samples[v] = append(res.Samples[v], int(t.Endpoint))
			}
		}
		return !last
	})
	res.run(seed, func(int) sim.Handler { return walker })
	return res
}

// cubeWalker is one node of BaselineWalkHypercube. In round s ≤ dim it
// adopts the tokens that arrived and moves each held token across
// coordinate s by a fair coin; round dim+1 reports the endpoints to the
// origins and round dim+2 reads the answers.
type cubeWalker struct {
	v      hypercube.Vertex
	dim    int
	idBits int
	mine   []int32 // origins of the tokens held
	res    *TokenWalkResult
}

func (nd *cubeWalker) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	step := ctx.Round()
	if step > nd.dim+1 {
		for _, m := range inbox {
			if a, ok := m.Payload.(walkAnswer); ok {
				nd.res.Samples[nd.v] = append(nd.res.Samples[nd.v], int(a.Endpoint))
			}
		}
		return false
	}
	for _, m := range inbox {
		if t, ok := m.Payload.(walkToken); ok {
			nd.mine = append(nd.mine, t.Origin)
		}
	}
	if step > nd.dim {
		for _, origin := range nd.mine {
			ctx.Send(vertexID(int(origin)), walkAnswer{Endpoint: int32(nd.v)}, nd.idBits)
		}
		return true
	}
	r := ctx.RNG()
	keep := nd.mine[:0]
	for _, origin := range nd.mine {
		if r.Coin() {
			ctx.Send(vertexID(int(hypercube.Neighbor(nd.v, step))), walkToken{Origin: origin, Step: int32(step)}, 2*nd.idBits)
		} else {
			keep = append(keep, origin)
		}
	}
	nd.mine = keep
	return true
}

// BaselineWalkHypercube is the distributed d-round coin-flip sampler of
// Section 2.3: rounds = d + 1 (Θ(log n)), again exponentially slower
// than Algorithm 2.
func BaselineWalkHypercube(seed uint64, dim, k int) *TokenWalkResult {
	n := hypercube.N(dim)
	res := &TokenWalkResult{Samples: make([][]int, n), Rounds: dim + 1}
	idBits := sim.IDBits(n)
	res.run(seed, func(v int) sim.Handler {
		nd := &cubeWalker{v: hypercube.Vertex(v), dim: dim, idBits: idBits, mine: make([]int32, k), res: res}
		for j := range nd.mine {
			nd.mine[j] = int32(v)
		}
		return nd
	})
	return res
}
