package committee

import (
	"fmt"
	"slices"
	"testing"

	"overlaynet/internal/rng"
)

// coinEngine is a one-worker engine with no stack around it.
func coinEngine() *Engine { return New(1, 1) }

// lazyCoins is the reference Phase-1 symbol source: every symbol is drawn
// from r at the moment it is read. For k = 2^p it is the next p bits of a
// buffered word, low bits first, a new word taken when fewer than p bits
// are left; any other k is one Intn(k). The buffer lives for one
// vertexRound call: start empties it.
type lazyCoins struct {
	r    *rng.RNG
	k    int
	w    uint64
	bits uint
}

func (c *lazyCoins) start() { c.w, c.bits = 0, 0 }

func (c *lazyCoins) sym() int {
	if c.k&(c.k-1) != 0 {
		return c.r.Intn(c.k)
	}
	p := uint(0)
	for 1<<p < c.k {
		p++
	}
	if c.bits < p {
		c.w, c.bits = c.r.Uint64(), 64
	}
	s := int(c.w & (1<<p - 1))
	c.w >>= p
	c.bits -= p
	return s
}

// ones is iteration 1's count on the binary cube: a popcount of the next m bits.
func (c *lazyCoins) ones(m int) (n int) {
	for range m {
		n += c.sym()
	}
	return n
}

// coinListAgainstLazy takes vertex u of the k-ary d-cube (d = 2 or 4)
// through Phase 1 and iteration 1: the m1 requests from each asking list
// (1, and 3 when d = 4), then serves that drain lists 2 and 4 past
// underflow, each in two runs from two askers, split at cut. It replays
// the same reads on budgets with lazyCoins over a copy of the generator
// and asks for the same targets, answers, SampleFails and Held, and the
// same generator state at the end.
func coinListAgainstLazy(t testing.TB, e *Engine, seed uint64, k, d, m0, m1, u, cut int) {
	nv := 1
	for range d {
		nv *= k
	}
	e.Arity = k
	e.Reset(nv, d, []int{m0, m1, m1})
	clear(e.Owner)
	e.cells[0].Counters = Counters{}
	r := rng.New(seed)
	ref := lazyCoins{r: rng.New(seed), k: k}
	name := fmt.Sprintf("k=%d d=%d m0=%d m1=%d u=%d cut=%d", k, d, m0, m1, u, cut)

	budget := make([]int, d)
	for j := range budget {
		budget[j] = m0
	}
	pow := func(j int) int { // coordinate j's place value, j from 0
		p := 1
		for range j {
			p *= k
		}
		return p
	}
	to := func(j, s int) int32 { return int32(u - u/pow(j)%k*pow(j) + s*pow(j)) }
	fails := 0

	// Iteration 1's ask: per asking list, per symbol, one run.
	ref.start()
	want := make(map[int32][]asks)
	for j := 0; j < d; j += 2 {
		got := min(m1, budget[j])
		cnt := make([]int32, k)
		if k == 2 {
			ones := ref.ones(got)
			cnt[0], cnt[1] = int32(got-ones), int32(ones)
		} else {
			for range got {
				cnt[ref.sym()]++
			}
		}
		budget[j] -= got
		own := u / pow(j) % k
		cnt[own] += int32(m1 - got)
		fails += m1 - got
		for s, n := range cnt {
			if n > 0 {
				want[to(j, s)] = append(want[to(j, s)], asks{int32(u), n, int32(j + 1)})
			}
		}
	}
	e.pr = 0
	e.vertexRound(0, r, u)
	for v := range int32(nv) {
		if got := e.reqs[0][v].q; !slices.Equal(got, want[v]) {
			t.Fatalf("%s: vertex %d is asked %v, want %v", name, v, got, want[v])
		}
	}

	// Iteration 1's serve: lists 2 (and 4) drained past their end.
	ref.start()
	n := m0 + 5
	runs := e.reqs[0][u].q[:0]
	answers := [2][]int32{}
	for j := 0; j < d; j += 2 {
		for a, cnt := range [2]int{cut % (n + 1), n - cut%(n+1)} {
			runs = append(runs, asks{int32(a), int32(cnt), int32(j + 1)})
			for range cnt {
				v := int32(u)
				if budget[j+1] == 0 {
					fails++
				} else {
					budget[j+1]--
					v = to(j+1, ref.sym())
				}
				answers[a] = append(answers[a], v)
			}
		}
	}
	e.reqs[0][u].q = runs
	for a := range answers {
		e.resps[0][a].vals.q = e.resps[0][a].vals.q[:0]
	}
	e.pr = 1
	e.vertexRound(0, r, u)
	for a := range answers {
		if got := e.resps[0][a].vals.q; !slices.Equal(got, answers[a]) {
			t.Fatalf("%s: asker %d is answered\n%v, want\n%v", name, a, got, answers[a])
		}
	}
	if got := e.cells[0].SampleFails; got != fails || fails < 5 {
		t.Fatalf("%s: %d sample fails, reference %d (at least the 5 past the end)", name, got, fails)
	}
	held := 0
	for _, b := range budget {
		held += b
	}
	if got := e.Held(u); got != held {
		t.Fatalf("%s: holds %d entries, want %d", name, got, held)
	}
	if *r != *ref.r {
		t.Fatalf("%s: the budgets consumed different draws from the lazy reference", name)
	}
}

// coinCubeDim is the cube coinListAgainstLazy runs: d = 4, two asking
// lists whose reads share one buffer, while the cube stays small.
func coinCubeDim(k int) int {
	if k <= 8 {
		return 4
	}
	return 2
}

func TestCoinListMatchesLazyCoins(t *testing.T) {
	e := coinEngine()
	defer e.Close()
	for _, k := range []int{2, 3, 4, 5, 8, 16, 256} { // symbol widths 1, –, 2, –, 3 (a word's last bit unread), 4, 8
		for _, m := range [][2]int{{1, 1}, {70, 35}, {133, 140}, {257, 256}} { // m₀ off the word size; m₁ short of, past and at the list's end
			coinListAgainstLazy(t, e, uint64(k*m[0]), k, coinCubeDim(k), m[0], m[1], (k*k-1)/2, m[0]/3)
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
		d := coinCubeDim(arity)
		nv := arity * arity
		if d == 4 {
			nv *= nv
		}
		coinListAgainstLazy(t, e, seed, arity, d, int(m0)%600, int(m1)%600, int(u)%nv, int(seed%1024))
	})
}

// BenchmarkSample reports ns per Algorithm 2 message over one epoch of
// the toy engine on the binary 12-cube: Phase 1's coins, every serve and
// collect, one worker.
func BenchmarkSample(b *testing.B) {
	ty := newToy(2, 12, 1)
	defer ty.e.Close()
	e, msgs := ty.e, int64(0)
	for b.Loop() {
		e.Reset(len(ty.verts), 12, ty.mi)
		clear(e.Owner)
		for pr := 0; pr < 2*len(ty.mi)-1; pr++ {
			e.Begin(nil, ty.members, ty.verts)
			e.Sample(pr)
			msgs += e.End().Messages
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
}
