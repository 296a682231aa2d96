package committee

import (
	"slices"
	"testing"

	"overlaynet/internal/rng"
)

// coinEngine is a one-worker engine whose Fill packs Intn(Arity) per draw.
func coinEngine() *Engine {
	e := New(1, 1, func(phase, w int) {})
	e.Fill = func(r *rng.RNG, _, _ int, syms []uint64, m int) {
		b := SymBits(e.Arity)
		clear(syms)
		for i := uint(0); i < uint(m); i++ {
			syms[i*b>>6] |= uint64(r.Intn(e.Arity)) << (i * b & 63)
		}
	}
	return e
}

// coinListAgainstSlice takes vertex u of the k-ary 2-cube through Phase 1,
// iteration 1's m1 requests from list 1 and a serve that drains list 2 past
// underflow, and replays it on the []int32 lists the packed ones replaced —
// fill decoded up front, swap-remove on vertex ids — from a copy of the
// generator: the same targets, answers, SampleFails and Held, and the same
// generator state at the end.
func coinListAgainstSlice(t testing.TB, e *Engine, seed uint64, k, m0, m1, u int) {
	e.Arity = k
	e.Reset(k*k, 2, []int{m0, m1})
	clear(e.Owner)
	e.cells[0].Counters = Counters{}
	r := rng.New(seed)
	ref := *r

	var lists [2][]int32
	for j, pow := 0, 1; j < 2; j, pow = j+1, pow*k {
		for i := 0; i < m0; i++ {
			lists[j] = append(lists[j], int32(u-u/pow%k*pow+ref.Intn(k)*pow))
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
