package sampling

import (
	"fmt"
	"math"

	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
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
	Shards  int     // ignored, like HGraphParams.Shards
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
	fill := func(r *rng.RNG, u, j int) int32 {
		return int32(cube.WithCoord(u, j-1, r.Intn(p.K)))
	}
	return rapidCube(sim.Config{Seed: seed}, cube.N(), p.Dim, p.M, fill)
}
