package sampling

import (
	"cmp"
	"slices"

	"overlaynet/internal/hypercube"
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
	d := p.Dim
	n := hypercube.N(d)
	net := sim.NewNetwork(sim.Config{Seed: seed, Shards: p.Shards, Latency: p.Latency})
	res := &RapidResult{Samples: make([][]int, n), Rounds: p.Rounds()}
	failures := make([]int, n)
	idBits := sim.IDBits(n)
	T := p.T()

	idOf := func(v int) sim.NodeID { return sim.NodeID(v + 1) }

	for v := 0; v < n; v++ {
		u := hypercube.Vertex(v)
		net.Spawn(idOf(v), func(ctx *sim.Ctx) {
			r := ctx.RNG()
			// M[j-1] is the paper's M_j.
			M := make([]Multiset[int32], d)

			extract := func(j int) int32 {
				w, ok := M[j-1].Extract(r)
				if !ok {
					failures[int(u)]++
					return int32(u)
				}
				return w
			}

			// sendRequests is Phase 2 of iteration i: for every list
			// index j ≡ 1 (mod 2^i), extract m_i walk endpoints from
			// M_j and ask each for an extension in dimension block
			// j+2^{i-1}..j+2^i−1.
			sendRequests := func(i int) {
				mi := p.M(i)
				step := 1 << i
				type req struct {
					target int32
					j      int16
				}
				var reqs []req
				for j := 1; j <= d; j += step {
					for k := 0; k < mi; k++ {
						reqs = append(reqs, req{target: extract(j), j: int16(j)})
					}
				}
				slices.SortFunc(reqs, func(a, b req) int {
					if a.target != b.target {
						return cmp.Compare(a.target, b.target)
					}
					return cmp.Compare(a.j, b.j)
				})
				for a := 0; a < len(reqs); {
					b := a
					var js []int16
					for b < len(reqs) && reqs[b].target == reqs[a].target {
						js = append(js, reqs[b].j)
						b++
					}
					ctx.Send(idOf(int(reqs[a].target)), hcReq{Js: js}, len(js)*idBits)
					a = b
				}
			}

			// Phase 1 (local): fill every M_j with m_0 entries, each
			// either n_j(u) or u by a fair coin — walks randomizing
			// exactly coordinate j.
			m0 := p.M(0)
			for j := 1; j <= d; j++ {
				for k := 0; k < m0; k++ {
					if r.Coin() {
						M[j-1].Add(int32(hypercube.Neighbor(u, j)))
					} else {
						M[j-1].Add(int32(u))
					}
				}
			}
			sendRequests(1)

			for i := 1; i <= T; i++ {
				// Phase 3: a request (w, j) is served from M_{j+2^{i-1}},
				// whose entries have coordinates j+2^{i-1}..j+2^i−1
				// randomized relative to us.
				half := 1 << (i - 1)
				inbox := ctx.NextRound()
				for _, m := range inbox {
					rq, ok := m.Payload.(hcReq)
					if !ok {
						continue
					}
					pairs := make([]hcRespPair, len(rq.Js))
					for k, j := range rq.Js {
						pairs[k] = hcRespPair{V: extract(int(j) + half), J: j}
					}
					ctx.Send(m.From, hcResp{Pairs: pairs}, len(pairs)*idBits)
				}
				// Phase 4: clear all lists and refill from responses;
				// Phase 2 of the next iteration shares this round.
				inbox = ctx.NextRound()
				for j := range M {
					M[j].Clear()
				}
				for _, m := range inbox {
					if rp, ok := m.Payload.(hcResp); ok {
						for _, pr := range rp.Pairs {
							M[pr.J-1].Add(pr.V)
						}
					}
				}
				if i < T {
					sendRequests(i + 1)
				}
			}

			out := make([]int, M[0].Len())
			for k, w := range M[0].Items() {
				out[k] = int(w)
			}
			res.Samples[int(u)] = out
		})
	}
	net.Run(p.Rounds())
	net.Shutdown()
	res.Deferred = net.DeferredMessages()
	for _, w := range net.Work() {
		if w.MaxNodeBits > res.MaxNodeBits {
			res.MaxNodeBits = w.MaxNodeBits
		}
		res.TotalBits += w.TotalBits
	}
	for _, f := range failures {
		res.Failures += f
	}
	return res
}
