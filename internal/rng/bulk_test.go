package rng

import (
	"fmt"
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

// TestFillIntnMatchesIntn: the bytes are len(dst) successive Intn(n)
// calls, the byte past the slice is not FillIntn's, and the generator ends
// in the state those calls leave.
func TestFillIntnMatchesIntn(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 10, 256} {
		for _, m := range []int{0, 1, 13851} {
			got, want := New(uint64(n*m)+7), New(uint64(n*m)+7)
			buf := make([]uint8, m+1)
			buf[m] = 0xa5
			got.FillIntn(buf[:m], n)
			for k, v := range buf[:m] {
				if w := want.Intn(n); int(v) != w {
					t.Fatalf("n=%d len=%d: draw %d = %d, want %d", n, m, k, v, w)
				}
			}
			if buf[m] != 0xa5 {
				t.Fatalf("n=%d len=%d: the byte past the slice was written", n, m)
			}
			if *got != *want {
				t.Fatalf("n=%d len=%d: generator state differs after the fill", n, m)
			}
		}
	}
}

// BenchmarkFillIntn reports ns per draw of Algorithm 1's M₀ fill next to
// the Intn loop it replaces (m = core_churn's m₀, d = 8 and the Lemire
// path's d = 6).
func BenchmarkFillIntn(b *testing.B) {
	const m = 13851
	for _, n := range []int{8, 6} {
		b.Run(fmt.Sprintf("FillIntn/n=%d", n), func(b *testing.B) {
			r, dst := New(1), make([]uint8, m)
			for i := 0; i < b.N; i++ {
				r.FillIntn(dst, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/draw")
		})
		b.Run(fmt.Sprintf("Intn-loop/n=%d", n), func(b *testing.B) {
			r, dst := New(1), make([]int32, m)
			for i := 0; i < b.N; i++ {
				for k := range dst {
					dst[k] = int32(r.Intn(n))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/draw")
		})
	}
}
