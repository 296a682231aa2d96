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
