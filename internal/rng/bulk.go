package rng

import "math/bits"

// State is a generator's four words held by value. RNG.s is an array,
// which the compiler keeps in memory, so every Uint64 through the pointer
// is a load-update-store round trip; a loop that makes many draws takes
// the State into a local — a four-field struct lives in registers — draws
// with Next and hands it back with SetState. The stream is Uint64's.
type State struct{ s0, s1, s2, s3 uint64 }

// State returns the generator's current state.
func (r *RNG) State() State { return State{r.s[0], r.s[1], r.s[2], r.s[3]} }

// SetState resumes the generator from s. A loop that took the State must
// hand it back before anything else draws from r (Uint64nTail included).
func (r *RNG) SetState(s State) { r.s = [4]uint64{s.s0, s.s1, s.s2, s.s3} }

// Next returns the next 64 random bits — exactly Uint64's — and the state
// after the draw. It does not update s in place: a pointer receiver would
// take the local's address, and a local whose address is taken stays in
// memory.
func (s State) Next() (uint64, State) {
	x := s.s3 ^ s.s1
	return bits.RotateLeft64(s.s1*5, 7) * 9,
		State{s.s0 ^ x, s.s1 ^ s.s2 ^ s.s0, s.s2 ^ s.s0 ^ s.s1<<17, bits.RotateLeft64(x, 45)}
}

// PackBit makes m draws and packs bit `bit` of each into dst, draw k at bit
// k%64 of dst[k/64]; the unused tail of the last word is zero. It consumes
// exactly the m Uint64 calls it replaces. len(dst) must be ≥ ⌈m/64⌉.
func (r *RNG) PackBit(dst []uint64, m int, bit uint) {
	s := r.State()
	dst = dst[:(m+63)/64]
	for w := range dst {
		// Shift each coin in from the top: the one variable shift count is
		// loop-invariant, so the state and it stay in registers throughout.
		n := min(m-w*64, 64)
		var word, x uint64
		for k := 0; k < n; k++ {
			x, s = s.Next()
			word = word>>1 | x>>(bit&63)<<63
		}
		dst[w] = word >> (64 - uint(n))
	}
	r.SetState(s)
}

// FillIntn fills dst with len(dst) draws from [0, n), n ≤ 256 — exactly the
// Intn(n) calls it replaces: Lemire's draw on the next Uint64 (for a power
// of two its top bits), with the state handed to Uint64nTail for the rare
// retry and taken back.
func (r *RNG) FillIntn(dst []uint8, n int) {
	if n <= 0 || n > 256 {
		panic("rng: FillIntn needs 0 < n ≤ 256, what a byte holds")
	}
	s, un := r.State(), uint64(n)
	for k := range dst {
		var x uint64
		x, s = s.Next()
		hi, lo := bits.Mul64(x, un)
		if lo < un {
			r.SetState(s)
			hi = r.Uint64nTail(hi, lo, un)
			s = r.State()
		}
		dst[k] = uint8(hi)
	}
	r.SetState(s)
}
