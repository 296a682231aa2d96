// Package rng provides a small, fast, deterministic random number
// generator used throughout the simulator.
//
// All randomness in overlaynet flows through this package so that every
// experiment is exactly reproducible from a single 64-bit seed. The
// generator is xoshiro256** (Blackman & Vigna), seeded via splitmix64.
// It is not safe for concurrent use; the simulator gives every node its
// own generator derived deterministically from (network seed, node id)
// via Split, which keeps parallel execution reproducible.
package rng

import "math/bits"

// RNG is a deterministic pseudo-random number generator.
// The zero value is not valid; use New or Split.
type RNG struct {
	s [4]uint64
}

// Mix64 is the splitmix64 finalizer: a bijective avalanche over
// uint64. The fault, latency, retransmit and sampling schedules hash
// event identities through it, so each decision is a pure function of
// (seed, identity) rather than a draw from a shared stream.
func Mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// Unit maps a hash to a float64 in [0, 1) using its top 53 bits.
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// splitmix64 advances x and returns the next splitmix64 output.
// It is used to expand seeds into full xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return Mix64(*x)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed never yields four zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from this one and the given
// stream identifier. Two Splits with different ids yield generators with
// unrelated streams; Split does not advance the parent. The generator is
// returned by value, so a caller that keeps it inline allocates nothing.
func (r *RNG) Split(id uint64) RNG {
	x := r.s[0] ^ bits.RotateLeft64(r.s[2], 17) ^ (id * 0xd1342543de82ef95)
	var n RNG
	for i := range n.s {
		n.s[i] = splitmix64(&x)
	}
	if n.s[0]|n.s[1]|n.s[2]|n.s[3] == 0 {
		n.s[0] = 0x9e3779b97f4a7c15
	}
	return n
}

// Uint64 returns the next 64 random bits.
//
// Written with the state update on locals rather than in-place array
// ops: this form costs exactly the inliner's budget of 80, so Uint64
// inlines into the overlay sampling loops where the per-draw call
// overhead was measurable. The draw sequence is bit-identical to the
// textbook xoshiro256** formulation (x is the pre-rotation s3 ^ s1;
// the result is computed from the pre-update s1 at the return).
func (r *RNG) Uint64() uint64 {
	s0, s1, s2 := r.s[0], r.s[1], r.s[2]
	x := r.s[3] ^ s1
	r.s[0] = s0 ^ x
	r.s[1] = s1 ^ s2 ^ s0
	r.s[2] = s2 ^ s0 ^ s1<<17
	r.s[3] = bits.RotateLeft64(x, 45)
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's
// nearly-divisionless method. It panics if n == 0.
//
// The retry loop runs with probability < n/2^64 and lives in
// Uint64nTail so that this common path stays within the inlining
// budget — Uint64n is the per-message bottleneck of the overlay
// sampling loops.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		return r.Uint64nTail(hi, lo, n)
	}
	return hi
}

// Uint64nTail resolves the rare biased draw of Uint64n — (hi, lo) is
// the first Mul64(Uint64(), n) result, with lo < n — consuming the
// exact retry sequence of the single-function form. It is exported so
// the overlay sampling loops can hand-inline the common path (Uint64n
// itself exceeds the inlining budget); call it only with a draw made
// exactly as Uint64n makes it.
func (r *RNG) Uint64nTail(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return Unit(r.Uint64())
}

// Coin returns true with probability 1/2.
func (r *RNG) Coin() bool {
	return r.Uint64()&1 == 1
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random in place.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements in place using the given swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ShuffleSlice permutes s uniformly at random in place, drawing the
// exact Intn sequence of Shuffle/ShuffleInts. The overlay hot paths
// use it because the swap-callback form of Shuffle forces a closure
// allocation per call.
func ShuffleSlice[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
