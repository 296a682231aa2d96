package rng

import (
	"math/bits"
	"testing"
)

// TestStateNextMatchesUint64: a State taken out of a generator draws
// Uint64's stream, and handing it back around Uint64nTail — with n just
// above 2⁶³, where more than a quarter of the first draws are rejected and
// the retry loop fires — reproduces Uint64n draw for draw.
func TestStateNextMatchesUint64(t *testing.T) {
	got, want := New(3), New(3)
	s := got.State()
	for i := 0; i < 1000; i++ {
		var a uint64
		if a, s = s.Next(); a != want.Uint64() {
			t.Fatalf("draw %d: Next returned %#x, not Uint64's", i, a)
		}
	}
	const n = 1<<63 + 1
	retried := 0
	for i := 0; i < 1000; i++ {
		var x uint64
		x, s = s.Next()
		hi, lo := bits.Mul64(x, n)
		if lo < n {
			got.SetState(s)
			before := *got
			hi = got.Uint64nTail(hi, lo, n)
			if *got != before {
				retried++
			}
			s = got.State()
		}
		if b := want.Uint64n(n); hi != b {
			t.Fatalf("bounded draw %d: %d through State, %d through Uint64n", i, hi, b)
		}
	}
	got.SetState(s)
	if *got != *want {
		t.Fatal("generator state differs after the hand-offs")
	}
	if retried < 100 {
		t.Fatalf("the retry loop fired on %d of 1000 draws; the hand-off is not exercised", retried)
	}
}
