package sampling

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"overlaynet/internal/hypercube"
	"overlaynet/internal/sim"
)

// KAryParams parameterizes rapid node sampling on the d-dimensional
// k-ary hypercube (Definition 1) — the "straightforward extension" of
// Algorithm 2 that Section 7.2's robust DHT relies on. The dimension
// must be a power of two, as in the binary case.
type KAryParams struct {
	K, Dim  int
	Epsilon float64 // 0 < ε ≤ 1
	C       float64 // c ≥ β
	Shards  int     // sim.Config.Shards; results identical for any value
}

// DefaultKAryParams returns ε = 1, c = 1.
func DefaultKAryParams(k, dim int) KAryParams {
	return KAryParams{K: k, Dim: dim, Epsilon: 1, C: 1}
}

// Validate reports whether the parameters are usable.
func (p KAryParams) Validate() error {
	if p.K < 2 {
		return fmt.Errorf("sampling: k-ary arity %d < 2", p.K)
	}
	if p.Dim < 2 || p.Dim&(p.Dim-1) != 0 {
		return fmt.Errorf("sampling: k-ary dimension %d must be a power of two ≥ 2", p.Dim)
	}
	if p.Epsilon <= 0 || p.Epsilon > 1 {
		return fmt.Errorf("sampling: epsilon %v outside (0,1]", p.Epsilon)
	}
	if p.C <= 0 {
		return fmt.Errorf("sampling: c %v must be positive", p.C)
	}
	return nil
}

// T returns log₂ dim.
func (p KAryParams) T() int {
	t := 0
	for v := 1; v < p.Dim; v <<= 1 {
		t++
	}
	return t
}

// M returns m_i = ⌈(1+ε)^{T−i}·c·log₂(k^dim)⌉, the k-ary analogue of
// Lemma 9's budgets (log n = dim·log₂ k).
func (p KAryParams) M(i int) int {
	t := p.T()
	if i < 0 || i > t {
		panic(fmt.Sprintf("sampling: m_%d outside [0,%d]", i, t))
	}
	logn := float64(p.Dim) * math.Log2(float64(p.K))
	return int(math.Ceil(math.Pow(1+p.Epsilon, float64(t-i)) * p.C * logn))
}

// Samples returns the final per-node sample count m_T.
func (p KAryParams) Samples() int { return p.M(p.T()) }

// Rounds returns the communication rounds (2 per iteration plus one).
func (p KAryParams) Rounds() int { return 2*p.T() + 1 }

// RapidKAry runs the k-ary generalization of Algorithm 2: coordinate j
// of a walk is randomized by drawing a uniform value from {0,…,k−1}
// (the binary coin flip generalizes to a uniform symbol), and pointer
// doubling merges coordinate blocks exactly as in the binary case, so
// after log₂ dim iterations every node holds m_T exactly uniform
// samples of the k^dim vertices.
func RapidKAry(seed uint64, p KAryParams) *RapidResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cube := hypercube.NewKAry(p.K, p.Dim)
	n := cube.N()
	d := p.Dim
	T := p.T()
	net := sim.NewNetwork(sim.Config{Seed: seed, Shards: p.Shards})
	res := &RapidResult{Samples: make([][]int, n), Rounds: p.Rounds()}
	failures := make([]int, n)
	idBits := sim.IDBits(n)
	idOf := func(v int) sim.NodeID { return sim.NodeID(v + 1) }

	for v := 0; v < n; v++ {
		u := v
		net.Spawn(idOf(v), func(ctx *sim.Ctx) {
			r := ctx.RNG()
			M := make([]Multiset[int32], d)

			extract := func(j int) int32 {
				w, ok := M[j-1].Extract(r)
				if !ok {
					failures[u]++
					return int32(u)
				}
				return w
			}

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

			// Phase 1: randomize each coordinate independently with a
			// uniform symbol from {0,…,k−1}.
			m0 := p.M(0)
			for j := 1; j <= d; j++ {
				for k := 0; k < m0; k++ {
					val := r.Intn(p.K)
					M[j-1].Add(int32(cube.WithCoord(u, j-1, val)))
				}
			}
			sendRequests(1)

			for i := 1; i <= T; i++ {
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
			res.Samples[u] = out
		})
	}
	net.Run(p.Rounds())
	net.Shutdown()
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
