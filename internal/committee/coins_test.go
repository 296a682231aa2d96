package committee

import (
	"fmt"
	"slices"
	"testing"

	"overlaynet/internal/rng"
)

// coinEngine is a one-worker engine with no stack around it.
func coinEngine() *Engine { return New(1, 1) }

// fillSymbols decodes, symbol by symbol, the m Phase-1 symbols fill draws
// from r for arity k: a power of two takes the next symbol from the low
// bits of the current word's next symBits(k)-bit slot, starting a word
// when the last one is used up — ⌈m·b/64⌉ words in all; any other arity
// is one Intn(k) apiece.
func fillSymbols(r *rng.RNG, k, m int) []int {
	b, out := symBits(k), make([]int, 0, m)
	if k&(k-1) != 0 {
		for range m {
			out = append(out, r.Intn(k))
		}
		return out
	}
	for len(out) < m {
		x := r.Uint64()
		for s := uint(0); s < 64 && len(out) < m; s += b {
			out = append(out, int(x>>s)&(k-1))
		}
	}
	return out
}

// TestFillConsumesWhatItStores: for a power-of-two arity the fill takes
// exactly ⌈m·b/64⌉ words, each slot holding its low bits of the word with
// the bits above them and the last word's tail zero; any other arity takes
// exactly m Intn draws. Both overwrite every word they are handed and
// nothing past it.
func TestFillConsumesWhatItStores(t *testing.T) {
	e := coinEngine()
	defer e.Close()
	for _, k := range []int{2, 3, 4, 5, 8, 16, 32, 200, 256} {
		b := symBits(k)
		for _, m := range []int{0, 1, 31, 32, 33, 63, 64, 65, 2496} {
			e.Arity = k
			e.Reset(1, 1, []int{m})
			words := (m*int(b) + 63) / 64
			if e.wpl != words {
				t.Fatalf("k=%d m=%d: %d words per list, want ⌈m·%d/64⌉ = %d", k, m, e.wpl, b, words)
			}
			buf := make([]uint64, words+1)
			for i := range buf {
				buf[i] = ^uint64(0)
			}
			r, ref := rng.New(uint64(k*m)+1), rng.New(uint64(k*m)+1)
			e.fill(r, buf[:words])
			want := make([]uint64, words+1)
			want[words] = ^uint64(0) // the word past the list is not the fill's
			for i, v := range fillSymbols(ref, k, m) {
				want[i*int(b)/64] |= uint64(v) << (uint(i) * b % 64)
			}
			if !slices.Equal(buf, want) {
				t.Fatalf("k=%d m=%d: filled %#x, want %#x", k, m, buf, want)
			}
			if *r != *ref {
				t.Fatalf("k=%d m=%d: the fill consumed other than ⌈m·b/64⌉ words or m draws", k, m)
			}
		}
	}
}

// BenchmarkFill reports ns per Phase-1 symbol for one §6 list at n = 100k
// (m₀ = 2496) on the binary cube, the k-ary cube of X4 and a power of two
// whose symbols leave slot bits unused.
func BenchmarkFill(b *testing.B) {
	const m = 2496
	for _, k := range []int{2, 3, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			e := coinEngine()
			defer e.Close()
			e.Arity = k
			e.Reset(1, 1, []int{m})
			r, syms := rng.New(1), e.syms(0)
			for i := 0; i < b.N; i++ {
				e.fill(r, syms)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/m, "ns/symbol")
		})
	}
}

// coinListAgainstSlice takes vertex u of the k-ary 2-cube through Phase 1,
// iteration 1's m1 requests from list 1 and a serve that drains list 2 past
// underflow, and replays it on the []int32 lists the packed ones replaced —
// fill decoded up front by fillSymbols, swap-remove on vertex ids — from a
// copy of the generator: the same targets, answers, SampleFails and Held,
// and the same generator state at the end.
func coinListAgainstSlice(t testing.TB, e *Engine, seed uint64, k, m0, m1, u int) {
	e.Arity = k
	e.Reset(k*k, 2, []int{m0, m1})
	clear(e.Owner)
	e.cells[0].Counters = Counters{}
	r := rng.New(seed)
	ref := *r

	var lists [2][]int32
	for j, pow := 0, 1; j < 2; j, pow = j+1, pow*k {
		for _, v := range fillSymbols(&ref, k, m0) {
			lists[j] = append(lists[j], int32(u-u/pow%k*pow+v*pow))
		}
	}
	fails := 0
	draw := func(j int) int32 {
		l := lists[j]
		if len(l) == 0 {
			fails++
			return int32(u)
		}
		h := ref.Intn(len(l))
		v := l[h]
		l[h] = l[len(l)-1]
		lists[j] = l[:len(l)-1]
		return v
	}
	asked := make([]int32, k*k)
	for i := 0; i < m1; i++ {
		asked[draw(0)]++
	}

	e.pr = 0
	e.vertexRound(0, r, u)
	for v := range asked {
		q := e.reqs[0][v].q
		if asked[v] == 0 && len(q) == 0 {
			continue
		}
		if len(q) != 1 || q[0] != (asks{int32(u), asked[v], 1}) {
			t.Fatalf("k=%d m0=%d m1=%d u=%d: vertex %d is asked %v, want one run of %d for list 1", k, m0, m1, u, v, q, asked[v])
		}
	}

	const asker = 0
	n := m0 + 5
	e.reqs[0][u].q = append(e.reqs[0][u].q[:0], asks{asker, int32(n), 1})
	e.resps[0][asker].vals.q = e.resps[0][asker].vals.q[:0]
	want := make([]int32, n)
	for i := range want {
		want[i] = draw(1)
	}
	e.pr = 1
	e.vertexRound(0, r, u)
	if got := e.resps[0][asker].vals.q; !slices.Equal(got, want) {
		t.Fatalf("k=%d m0=%d m1=%d u=%d: list 2 drained to\n%v, want\n%v", k, m0, m1, u, got, want)
	}
	if got := e.cells[0].SampleFails; got != fails || fails < 5 {
		t.Fatalf("k=%d m0=%d m1=%d u=%d: %d sample fails, reference %d (at least the 5 past the end)", k, m0, m1, u, got, fails)
	}
	if got, want := e.Held(u), len(lists[0])+len(lists[1]); got != want {
		t.Fatalf("k=%d m0=%d m1=%d u=%d: holds %d entries, want %d", k, m0, m1, u, got, want)
	}
	if *r != ref {
		t.Fatalf("k=%d m0=%d m1=%d u=%d: the packed lists consumed different draws", k, m0, m1, u)
	}
}

func TestCoinListMatchesSlice(t *testing.T) {
	e := coinEngine()
	defer e.Close()
	for _, k := range []int{2, 3, 4, 5, 16, 256} { // symbol widths 1, 2, 2, 4, 4, 8
		for _, m := range [][2]int{{1, 1}, {70, 35}, {133, 140}, {257, 256}} { // m₀ off the word size; m₁ short of, past and at the list's end
			coinListAgainstSlice(t, e, uint64(k*m[0]), k, m[0], m[1], (k*k-1)/2)
		}
	}
}

func FuzzCoinList(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(70), uint16(35), uint16(1))
	f.Add(uint64(2), uint8(254), uint16(133), uint16(140), uint16(40000))
	e := coinEngine()
	f.Cleanup(e.Close)
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, m0, m1, u uint16) {
		arity := 2 + int(k)%255
		coinListAgainstSlice(t, e, seed, arity, int(m0)%600, int(m1)%600, int(u)%(arity*arity))
	})
}
