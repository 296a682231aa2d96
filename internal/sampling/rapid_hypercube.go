package sampling

import (
	"fmt"
	"math"
	"math/bits"

	"overlaynet/internal/committee"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// KAryParams parameterizes Algorithm 2, rapid node sampling on the
// d-dimensional k-ary hypercube (Definition 1). K = 2 is the paper's
// binary hypercube; K > 2 is the "straightforward extension" Section
// 7.2's robust DHT relies on. The dimension must be a power of two (the
// paper's d = 2^k assumption). The algorithm runs T = log₂ d iterations
// with budgets m_i = ⌈(1+ε)^{T−i}·c·log₂ n⌉, n = k^d (Lemma 9 at K = 2,
// where log₂ n = d).
type KAryParams struct {
	K, Dim  int
	Epsilon float64 // 0 < ε ≤ 1
	C       float64 // c ≥ β
	Shards  int     // ignored, like HGraphParams.Shards
	// Latency is the delivery deadline of every round: a message whose
	// sampled delay exceeds one round is lost, as in §5 and §6, so lists
	// run short and draws from an empty one count as failures. Zero loses
	// nothing.
	Latency sim.Latency
}

// DefaultHypercubeParams returns the binary cube of dimension dim with
// ε = 1, c = 1. It and RapidHypercube stay while bench/ calls them.
func DefaultHypercubeParams(dim int) KAryParams {
	return KAryParams{K: 2, Dim: dim, Epsilon: 1, C: 1}
}

// Validate reports whether the parameters are usable.
func (p KAryParams) Validate() error {
	if p.K < 2 {
		return fmt.Errorf("sampling: cube arity %d < 2", p.K)
	}
	if p.Dim < 2 || p.Dim&(p.Dim-1) != 0 {
		return fmt.Errorf("sampling: cube dimension %d must be a power of two ≥ 2", p.Dim)
	}
	if !(p.Epsilon > 0 && p.Epsilon <= 1) {
		return fmt.Errorf("sampling: epsilon %v outside (0,1]", p.Epsilon)
	}
	if !(p.C > 0 && p.C < math.Inf(1)) {
		return fmt.Errorf("sampling: c %v must be finite and positive", p.C)
	}
	return nil
}

// T returns log₂ dim.
func (p KAryParams) T() int { return bits.Len(uint(max(p.Dim, 1) - 1)) }

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

// RapidKAry runs Algorithm 2 on the cube of p. Coordinate j of a walk
// is randomized by drawing a uniform value from {0,…,k−1} (the coin
// flip at k = 2), and pointer doubling merges coordinate blocks, so
// after T = log₂ dim iterations every node's list M₁ holds p.Samples()
// vertices whose coordinates were all chosen independently and
// uniformly — exactly uniform samples of the k^dim vertices (Lemma 8) —
// using p.Rounds() = O(log log n) communication rounds.
func RapidKAry(seed uint64, p KAryParams) *RapidResult {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return onCommittees(seed, p)
}

// RapidHypercube is RapidKAry; p.K is 2 for the binary cube.
func RapidHypercube(seed uint64, p KAryParams) *RapidResult { return RapidKAry(seed, p) }

// onCommittees runs Algorithm 2 on the k-ary cube of p on the engine §5
// and §6 share, each vertex v simulated by the committee {node v}: the
// degenerate committee, whose leader is the node itself. Node v+1 draws
// from the seed's split v+1, as a kernel node would. A message whose
// sampled delay under p.Latency exceeds one round misses the primitive
// round it was sent for and is lost, the deadline §5 and §6 run under
// (Engine.SetLatency).
func onCommittees(seed uint64, p KAryParams) *RapidResult {
	n := 1
	for range p.Dim {
		n *= p.K
	}
	e := committee.New(seed, 1)
	defer e.Close()
	e.Arity, e.RespFrom = p.K, uint64(n)+1
	e.Grow(n)
	root := rng.New(seed)
	ids, verts := make([]sim.NodeID, n), make([]int32, n)
	members, owned := make([][]sim.NodeID, n), make([][]int32, n)
	for v := range n {
		ids[v], verts[v] = vertexID(v), int32(v)
		members[v], owned[v] = ids[v:v+1:v+1], verts[v:v+1:v+1]
		e.NodeR[v] = root.Split(uint64(vertexID(v)))
	}
	mi := make([]int, p.T()+1)
	for i := range mi {
		mi[i] = p.M(i)
	}
	e.Reset(n, p.Dim, mi)
	clear(e.Owner)
	e.SetLatency(p.Latency)
	res := &RapidResult{Samples: make([][]int, n), Rounds: p.Rounds()}
	for pr := range res.Rounds {
		e.Begin(nil, members, owned)
		e.Sample(pr)
		res.Failures += e.End().SampleFails
	}
	for v, s := range e.Samples {
		res.Samples[v] = make([]int, len(s))
		for k, w := range s {
			res.Samples[v][k] = int(w)
		}
	}
	return res
}
