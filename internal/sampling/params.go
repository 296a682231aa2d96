package sampling

import (
	"fmt"
	"math"

	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
)

// HGraphParams are the parameters of Algorithm 1 (rapid node sampling
// in ℍ-graphs).
//
// The walk-length target is ⌈2α·log_{d/4} n⌉ (Lemma 2 guarantees the
// endpoint distribution is within n^{−α} of uniform per node); the
// algorithm runs T = ⌈log₂(2α·log_{d/4} n)⌉ pointer-doubling
// iterations, producing walks of length 2^T ≥ the target. The multiset
// budgets are m_i = ⌈(2+ε)^{T−i}·c·log₂ n⌉ (Lemma 7), so the final
// sample count is m_T = ⌈c·log₂ n⌉ ≥ β·log n for c ≥ β.
type HGraphParams struct {
	N       int     // network size estimate (the paper allows a constant-factor estimate)
	D       int     // ℍ-graph degree (even, ≥ 8 in the paper; ≥ 6 accepted so that d/4 > 1)
	Alpha   float64 // walk-length constant α (Lemma 2/3; α > 2 for independence)
	Epsilon float64 // budget slack 0 < ε ≤ 1
	C       float64 // budget constant c ≥ β
	// FlatBudget replaces the geometric schedule with the constant
	// schedule m_i = m_T (ablation A1). The serve-phase load then
	// exceeds the remaining budget and extraction failures appear —
	// demonstrating why Lemma 7 needs the (2+ε)^{T−i} headroom.
	FlatBudget bool
	// WalkOverride, when positive, fixes the walk-length target
	// directly instead of deriving it from (N, D, Alpha). Use it when
	// sampling on arbitrary regular graphs (RapidRegular), where the
	// ℍ-graph mixing bound of Lemma 2 does not apply.
	WalkOverride int
	// Shards is passed to sim.Config.Shards: the number of workers the
	// simulator uses inside each round. Any value yields identical
	// samples (the kernel is deterministic for every shard count).
	Shards int
	// Latency is passed to sim.Config.Latency: the zero value keeps the
	// synchronous round model; an enabled model runs the sampler under
	// the discrete-event scheduler, where per-edge delays defer messages
	// past their synchronous round and the protocol degrades gracefully
	// (missed responses shrink the multisets, surfacing as extraction
	// failures and TV-distance loss — experiment AS1 sweeps this).
	Latency sim.Latency
	// Faults attaches a deterministic message-fault injector (drop/dup)
	// to the sampling run; the zero spec injects nothing. Lost batches
	// shrink the multisets exactly like late ones — unless Reliable is
	// enabled, which retransmits them.
	Faults fault.Spec
	// Reliable wraps every sampling node in the deterministic
	// ack/retransmit endpoint (internal/reliable): protocol rounds are
	// stretched by Reliable.EffectiveStretch(Latency) sim rounds, late
	// or dropped batches are retransmitted with fresh latency and fault
	// draws, and exhausted budgets surface in RapidResult.
	// DeliveryFailures. Stretch 1 on spread-free models keeps the
	// legacy tables bit-identical. Experiment AS2 sweeps this against
	// the unprotected AS1 behavior.
	Reliable reliable.Config
}

// DefaultHGraphParams returns the parameters used throughout the
// experiments: α = 2.5, ε = 1, c = β = 1.
func DefaultHGraphParams(n, d int) HGraphParams {
	return HGraphParams{N: n, D: d, Alpha: 2.5, Epsilon: 1, C: 1}
}

// Validate reports whether the parameters are usable.
func (p HGraphParams) Validate() error {
	if p.N < 4 {
		return fmt.Errorf("sampling: n = %d too small", p.N)
	}
	if p.WalkOverride == 0 && (p.D < 6 || p.D%2 != 0) {
		return fmt.Errorf("sampling: degree %d must be even and ≥ 6", p.D)
	}
	if p.D > MaxDegree {
		return fmt.Errorf("sampling: degree %d exceeds %d, the most a sampler's byte symbols index", p.D, MaxDegree)
	}
	if p.WalkOverride == 0 && p.Alpha < 1 {
		return fmt.Errorf("sampling: alpha %v < 1", p.Alpha)
	}
	if p.Epsilon <= 0 || p.Epsilon > 1 {
		return fmt.Errorf("sampling: epsilon %v outside (0,1]", p.Epsilon)
	}
	if p.C <= 0 {
		return fmt.Errorf("sampling: c %v must be positive", p.C)
	}
	if err := p.Faults.Validate(); err != nil {
		return fmt.Errorf("sampling: %w", err)
	}
	if err := p.Reliable.Validate(); err != nil {
		return fmt.Errorf("sampling: %w", err)
	}
	return nil
}

// WalkTarget returns the walk-length target: WalkOverride if set,
// otherwise ⌈2α·log_{d/4} n⌉, the minimum length for almost-uniform
// endpoints on ℍ-graphs (Lemma 2).
func (p HGraphParams) WalkTarget() int {
	if p.WalkOverride > 0 {
		return p.WalkOverride
	}
	base := float64(p.D) / 4
	return int(math.Ceil(2 * p.Alpha * math.Log(float64(p.N)) / math.Log(base)))
}

// T returns the number of pointer-doubling iterations,
// ⌈log₂(WalkTarget)⌉, which is log log n + O(1).
func (p HGraphParams) T() int {
	t := int(math.Ceil(math.Log2(float64(p.WalkTarget()))))
	if t < 1 {
		t = 1
	}
	return t
}

// WalkLength returns the length 2^T of the walks the algorithm
// actually produces.
func (p HGraphParams) WalkLength() int { return 1 << p.T() }

// M returns the multiset budget m_i for iteration i (0 ≤ i ≤ T):
// m_i = ⌈(2+ε)^{T−i}·c·log₂ n⌉.
func (p HGraphParams) M(i int) int {
	m := p.schedule()
	if i < 0 || i >= len(m) {
		panic(fmt.Sprintf("sampling: m_%d outside [0,%d]", i, len(m)-1))
	}
	return m[i]
}

// schedule returns the whole budget schedule m_0 … m_T.
func (p HGraphParams) schedule() []int {
	m := make([]int, p.T()+1)
	for i := range m {
		e := len(m) - 1 - i
		if p.FlatBudget {
			e = 0
		}
		m[i] = int(math.Ceil(math.Pow(2+p.Epsilon, float64(e)) * p.C * math.Log2(float64(p.N))))
	}
	return m
}

// Samples returns the final sample count m_T.
func (p HGraphParams) Samples() int { return p.M(p.T()) }

// Rounds returns the number of communication rounds the distributed
// implementation uses: 1 (Phase 1 + first requests) + 2 per iteration
// (the model's receive-compute-send rounds let Phase 4 of iteration i
// and Phase 2 of iteration i+1 share a round; the paper's
// one-phase-per-round accounting gives 3T, the same O(log log n)).
func (p HGraphParams) Rounds() int { return 2*p.T() + 1 }

// HypercubeParams are the parameters of Algorithm 2 (rapid node
// sampling in the binary hypercube). The paper assumes the dimension d
// is a power of two; n = 2^d, log n = d, and the algorithm runs
// T = log₂ d iterations with budgets m_i = ⌈(1+ε)^{T−i}·c·d⌉ (Lemma 9).
type HypercubeParams struct {
	Dim     int     // hypercube dimension d (power of two)
	Epsilon float64 // 0 < ε ≤ 1
	C       float64 // c ≥ β
	Shards  int     // sim.Config.Shards; results identical for any value
	// Latency is sim.Config.Latency: zero keeps the synchronous model
	// (see HGraphParams.Latency).
	Latency sim.Latency
}

// DefaultHypercubeParams returns ε = 1, c = 1.
func DefaultHypercubeParams(dim int) HypercubeParams {
	return HypercubeParams{Dim: dim, Epsilon: 1, C: 1}
}

// Validate reports whether the parameters are usable.
func (p HypercubeParams) Validate() error {
	if p.Dim < 2 || p.Dim&(p.Dim-1) != 0 {
		return fmt.Errorf("sampling: hypercube dimension %d must be a power of two ≥ 2", p.Dim)
	}
	if p.Epsilon <= 0 || p.Epsilon > 1 {
		return fmt.Errorf("sampling: epsilon %v outside (0,1]", p.Epsilon)
	}
	if p.C <= 0 {
		return fmt.Errorf("sampling: c %v must be positive", p.C)
	}
	return nil
}

// T returns log₂ d, the iteration count (= log log n).
func (p HypercubeParams) T() int {
	t := 0
	for v := 1; v < p.Dim; v <<= 1 {
		t++
	}
	return t
}

// M returns m_i = ⌈(1+ε)^{T−i}·c·d⌉.
func (p HypercubeParams) M(i int) int {
	t := p.T()
	if i < 0 || i > t {
		panic(fmt.Sprintf("sampling: m_%d outside [0,%d]", i, t))
	}
	return int(math.Ceil(math.Pow(1+p.Epsilon, float64(t-i)) * p.C * float64(p.Dim)))
}

// Samples returns the final sample count m_T.
func (p HypercubeParams) Samples() int { return p.M(p.T()) }

// Rounds returns the communication rounds of the distributed
// implementation (2 per iteration plus the initial round, as above).
func (p HypercubeParams) Rounds() int { return 2*p.T() + 1 }
