package committee

import (
	"math"
	"math/bits"
	"slices"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// list is one of a vertex's D lists (the paper's M). Phase 1 fills list j
// of vertex u with coins — entry k is u with coordinate j−1 set to a
// uniform symbol — so until a collect refills or empties it a list is
// `coins` symbols, packed in its words of the coin arena and decoded only
// when drawn. Afterwards it holds vertex ids in vals. At most one of the
// two is non-empty.
type list struct {
	coins int32
	vals  []int32
}

// asks is a run of n consecutive requests in a target's queue: vertex v
// asks n times for an extension of its list j. Everything v asks one
// target for one list is consecutive there — nothing else appends to that
// queue between two draws from the same list — so a queue of runs is the
// queue of messages, in order, run-length encoded.
type asks struct{ v, n, j int32 }

// span is the header of n consecutive response values: they extend the
// receiver's list j.
type span struct{ j, n int32 }

// segment is one worker's piece of a vertex's queue, an arena.
type segment[T any] struct {
	q    []T
	want int // the capacity Reset gives it; see drain
}

// answers is a response segment: the sampled values, flat, in the order
// they were drawn, and one span per request run they answer.
type answers struct {
	vals  segment[int32]
	spans segment[span]
}

// algorithm2 is the simulated rapid-sampling primitive (Algorithm 2) over
// a dense vertex space. Every slice is an arena: truncated, never freed,
// across rounds and epochs, so a steady-state round allocates nothing.
//
// Delivery has one mode. Worker w appends a message, as it generates it,
// to its own segment of the target vertex's queue (reqs[w][t],
// resps[w][t]); the vertex reads its segments in worker order and
// truncates them. Workers own contiguous committee ranges, so worker order
// then generation order is the serial order, at any worker count, and no
// message is ever copied from a sender-side buffer to a receiver-side one.
type algorithm2 struct {
	dim int   // lists per vertex: the cube's dimension D
	mi  []int // budget schedule m₀ … m_T
	// lists[u·D+j−1] is vertex u's list j, and its Phase-1 symbols are
	// words [·wpl, (·+1)·wpl) of coins at the same index, 1<<lb bits each:
	// the smallest power of two that holds a symbol, so none straddles a word.
	lists   []list
	coins   []uint64
	wpl     int
	lb      uint
	pow     []int32   // pow[j] = Arity^j: coordinate j's place value
	Samples [][]int32 // a vertex's final sample; nil until its last collect
	// Owner[u] is the committee simulating vertex u, −1 for none: messages
	// to such a vertex are dropped as they are generated.
	Owner  []int32
	reqs   [][]segment[asks]
	resps  [][]answers
	routed [][][]sim.NodeID // Route/Gather segments, [worker][committee]
	pr     int              // primitive round being simulated
}

// SymBits is the width in bits of one packed Phase-1 symbol for a cube of
// the given arity (at most 256).
func SymBits(arity int) uint { return 1 << uint(bits.Len(uint(bits.Len(uint(arity-1))-1))) }

// syms returns the coin words of list i.
func (e *Engine) syms(i int) []uint64 { return e.coins[i*e.wpl : (i+1)*e.wpl] }

// take is the swap-remove of a packed list: it returns the symbol at bit
// position at and moves the list's last symbol, at bit position end, there.
func take(syms []uint64, at, end, mask uint64) uint64 {
	s := syms[at>>6] >> (at & 63) & mask
	syms[at>>6] ^= (s ^ syms[end>>6]>>(end&63)&mask) << (at & 63)
	return s
}

// Reset empties the primitive's state for a new epoch over nVerts vertices
// of dimension d with budget schedule mi, keeping every arena. The stack
// fills Owner afterwards.
func (e *Engine) Reset(nVerts, d int, mi []int) {
	if d != e.dim {
		// Every list index moves: an arena kept would sit where no list
		// collects any more.
		clear(e.lists[:cap(e.lists)])
	}
	if e.Arity < 2 || e.Arity > 256 {
		panic("committee: Engine.Arity must be set to the cube's arity, 2 to 256")
	}
	e.dim, e.mi = d, mi
	e.lb = uint(bits.TrailingZeros(SymBits(e.Arity)))
	e.pow = e.pow[:0]
	for p := 1; len(e.pow) < d; p *= e.Arity {
		e.pow = append(e.pow, int32(p))
	}
	// One arena for all Phase-1 lists, with headroom: §6's m₀ follows the
	// largest group, and a new record must not reallocate every list.
	e.wpl = (mi[0]<<e.lb + 63) >> 6
	if need := nVerts * d * e.wpl; len(e.coins) < need {
		e.coins = make([]uint64, need+need/8)
	}
	// slices.Grow keeps what the backing array holds, so arenas survive.
	e.lists = slices.Grow(e.lists[:0], nVerts*d)[:nVerts*d]
	for i := range e.lists {
		e.lists[i] = list{vals: e.lists[i].vals[:0]}
	}
	e.Samples = slices.Grow(e.Samples[:0], nVerts)[:nVerts]
	clear(e.Samples) // a stalled final collect must see no sample
	e.Owner = slices.Grow(e.Owner[:0], nVerts)[:nVerts]
	for w := range e.reqs {
		e.reqs[w] = slices.Grow(e.reqs[w][:0], nVerts)[:nVerts]
		e.resps[w] = slices.Grow(e.resps[w][:0], nVerts)[:nVerts]
		for u := range e.reqs[w] {
			e.reqs[w][u].reset()
			e.resps[w][u].vals.reset()
			e.resps[w][u].spans.reset()
		}
	}
}

// Sample executes primitive round pr of Algorithm 2 for every vertex whose
// committee has a leader. A committee without one is inert: what its
// vertices were sent is lost, exactly as if the group could not simulate
// the round. Their queues are emptied before anything is generated, so
// this round's arrivals survive for the next.
func (e *Engine) Sample(pr int) {
	e.pr = pr
	for c, ld := range e.Leaders {
		if ld >= 0 {
			continue
		}
		for _, u := range e.verts[c] {
			for w := range e.reqs {
				e.reqs[w][u].q = e.reqs[w][u].q[:0]
				a := &e.resps[w][u]
				a.vals.q, a.spans.q = a.vals.q[:0], a.spans.q[:0]
			}
		}
	}
	e.Each(phaseSim)
	if e.gate != nil {
		e.Each(phaseGate)
	}
}

// simRange advances the vertices of worker w's committees, consuming each
// leader's RNG in the serial order (committee, then vertex).
func (e *Engine) simRange(w int) {
	lo, hi := e.Chunk(len(e.members), w)
	for c := lo; c < hi; c++ {
		if ld := e.Leaders[c]; ld >= 0 {
			for _, u := range e.verts[c] {
				e.vertexRound(w, &e.NodeR[ld], int(u))
			}
		}
	}
}

// vertexRound advances vertex u through primitive round e.pr. Ragged
// pointer doubling: at iteration i, list j ≡ 1 (mod 2^i) is extended from
// list j+2^(i−1) when that index is ≤ D; otherwise its block is already
// complete and it carries over, still coins, until the iteration that
// serves from it. When D is a power of two (§5) that never happens.
func (e *Engine) vertexRound(w int, r *rng.RNG, u int) {
	c := &e.cells[w]
	d, pr := e.dim, e.pr
	base := u * d
	split := e.shards > 1
	switch {
	case pr == 0:
		// Phase 1: fill every list with m₀ one-hop walks, then ask.
		for j := 1; j <= d; j++ {
			e.Fill(r, u, j, e.syms(base+j-1), e.mi[0])
			e.lists[base+j-1] = list{coins: int32(e.mi[0]), vals: e.lists[base+j-1].vals[:0]}
		}
		e.request(w, r, u, 1)
	case pr%2 == 1:
		// Serve iteration i = (pr+1)/2: answer each request for list j
		// with a draw from list j+2^(i−1). Per run: where the answers go,
		// which list they come from and how a coin decodes; per draw: the
		// generator, in registers, and a swap-remove.
		half := 1 << ((pr+1)/2 - 1)
		lb, mask := e.lb, uint64(1)<<(1<<e.lb)-1
		st := r.State()
		var x uint64
		msgs, fails := 0, 0
		for sw := range e.reqs {
			for _, rq := range e.reqs[sw][u].q {
				if rq.n == 0 {
					continue // every copy of the run was dropped
				}
				n := int(rq.n)
				var dst []int32
				if a := &e.resps[w][rq.v]; e.Owner[rq.v] >= 0 {
					p := len(a.vals.q)
					if cap(a.vals.q)-p < n {
						a.vals.q = slices.Grow(a.vals.q, n)
					}
					a.vals.q = a.vals.q[:p+n]
					dst = a.vals.q[p:]
					a.spans.q = append(a.spans.q, span{rq.j, rq.n})
				} else { // nobody to answer: the draws are still made
					c.scratch = slices.Grow(c.scratch[:0], n)[:n]
					dst = c.scratch
				}
				// The list is coins or vertex ids for the whole run; only
				// what a drawn index means differs.
				li := base + int(rq.j) + half - 1
				l := &e.lists[li]
				packed, vals := l.coins > 0, l.vals
				left := uint64(l.coins) + uint64(len(vals))
				var syms []uint64
				var pw, strip int32
				if packed {
					syms, pw = e.syms(li), e.pow[li-base]
					strip = int32(u) - int32(u)/pw%int32(e.Arity)*pw
				}
				for k := range dst {
					if left == 0 {
						fails++
						dst[k] = int32(u)
						continue
					}
					x, st = st.Next()
					hi, lo := bits.Mul64(x, left) // r.Intn(left), Lemire's fast path
					if lo < left {
						r.SetState(st)
						hi = r.Uint64nTail(hi, lo, left)
						st = r.State()
					}
					left--
					if packed {
						dst[k] = strip + int32(take(syms, hi<<lb, left<<lb, mask))*pw
					} else {
						dst[k] = vals[hi]
						vals[hi] = vals[left]
					}
				}
				if packed {
					l.coins = int32(left)
				} else {
					l.vals = vals[:left]
				}
				msgs += n
			}
			e.reqs[sw][u].drain(split)
		}
		r.SetState(st)
		c.Messages += int64(msgs)
		c.SampleFails += fails
	default:
		// Collect iteration i = pr/2, then ask for the next. Lists
		// j ≢ 1 (mod 2^i) have been drawn from for the last time and are
		// emptied; the asking lists are refilled through per-list cursors
		// (count, reslice once, one copy per span; D is well under 64); a
		// list whose block was complete carries over.
		i := pr / 2
		step := 1 << i
		var cnt, cur [64]int32
		for sw := range e.resps {
			for _, sp := range e.resps[sw][u].spans.q {
				cnt[sp.j] += sp.n
			}
		}
		for j := 1; j <= d; j++ {
			l := &e.lists[base+j-1]
			switch {
			case (j-1)&(step-1) != 0:
				*l = list{vals: l.vals[:0]}
			case j+step/2 <= d:
				n := int(cnt[j])
				if cap(l.vals) < n {
					l.vals = make([]int32, n)
				}
				*l = list{vals: l.vals[:n]}
			}
		}
		for sw := range e.resps {
			a := &e.resps[sw][u]
			p := int32(0)
			for _, sp := range a.spans.q {
				copy(e.lists[base+int(sp.j)-1].vals[cur[sp.j]:], a.vals.q[p:p+sp.n])
				cur[sp.j] += sp.n
				p += sp.n
			}
			a.vals.drain(split)
			a.spans.drain(split)
		}
		if i < len(e.mi)-1 {
			e.request(w, r, u, i+1)
		} else {
			// M is a multiset, but the queues deliver in sender order:
			// shuffle so the reorganization's first k samples are uniform.
			final := e.lists[base].vals
			rng.ShuffleSlice(r, final)
			e.Samples[u] = final
		}
	}
}

// reserve is the spare capacity a segment that held n messages should
// have when several workers split a vertex's queue. A segment's length is
// a sum of independent draws, so from epoch to epoch it varies by about
// its square root: relatively more for a piece than for the whole queue,
// whose variation append's own growth steps cover — and which piece the
// messages of a source land in moves with the committee order.
func reserve(n int) int { return 4*int(math.Sqrt(float64(n))) + 8 }

// drain empties the consumed segment for the next round. When the queue
// is split between workers, a segment that ran its reserve down asks for
// a larger arena, which reset installs at the epoch boundary: arenas then
// settle in the first epochs instead of growing at every new record, and
// a steady-state sampling round allocates nothing at any worker count.
func (s *segment[T]) drain(split bool) {
	if n := len(s.q); split && cap(s.q)-n < reserve(n) {
		s.want = max(s.want, n+2*reserve(n))
	}
	s.q = s.q[:0]
}

// reset empties the segment for a new epoch, in the arena drain asked for.
func (s *segment[T]) reset() {
	if s.want > cap(s.q) {
		s.q = make([]T, 0, s.want)
	}
	s.q = s.q[:0]
}

// request sends iteration i's requests from vertex u: mᵢ draws from each
// list j ≡ 1 (mod 2^i) whose block is still incomplete, each asking the
// drawn vertex to extend the walk. Iteration 1 draws coins: the targets
// of one list differ in one coordinate, so it counts draws per symbol and
// appends one run per symbol. Later iterations draw collected vertices —
// a refill always precedes the ask — and extend the target's tail run.
func (e *Engine) request(w int, r *rng.RNG, u, i int) {
	c := &e.cells[w]
	d, m := e.dim, e.mi[i]
	step := 1 << i
	owner, out := e.Owner, e.reqs[w]
	lb, mask := e.lb, uint64(1)<<(1<<e.lb)-1
	st := r.State()
	var x uint64
	var cnt [256]int32 // iteration 1: draws per symbol of the list at hand
	for j := 1; j+step/2 <= d; j += step {
		l := &e.lists[u*d+j-1]
		if i == 1 {
			syms, pw := e.syms(u*d+j-1), e.pow[j-1]
			own := int32(u) / pw % int32(e.Arity)
			rem := uint64(l.coins)
			for k := 0; k < m; k++ {
				if rem == 0 { // underflow: the remaining draws ask u itself
					cnt[own] += int32(m - k)
					c.SampleFails += m - k
					break
				}
				x, st = st.Next()
				hi, lo := bits.Mul64(x, rem) // r.Intn(rem), Lemire's fast path
				if lo < rem {
					r.SetState(st)
					hi = r.Uint64nTail(hi, lo, rem)
					st = r.State()
				}
				rem--
				cnt[take(syms, hi<<lb, rem<<lb, mask)]++
			}
			l.coins = int32(rem)
			for s := int32(0); s < int32(e.Arity); s++ {
				if t := int32(u) + (s-own)*pw; cnt[s] > 0 && owner[t] >= 0 {
					out[t].q = append(out[t].q, asks{int32(u), cnt[s], int32(j)})
				}
				cnt[s] = 0
			}
		} else {
			vals := l.vals
			for k := 0; k < m; k++ {
				t := int32(u)
				if n := uint64(len(vals)); n == 0 {
					c.SampleFails++
				} else {
					x, st = st.Next()
					hi, lo := bits.Mul64(x, n)
					if lo < n {
						r.SetState(st)
						hi = r.Uint64nTail(hi, lo, n)
						st = r.State()
					}
					t = vals[hi]
					vals[hi] = vals[n-1]
					vals = vals[:n-1]
				}
				if owner[t] < 0 {
					continue
				}
				if q := out[t].q; len(q) > 0 && q[len(q)-1].v == int32(u) && q[len(q)-1].j == int32(j) {
					q[len(q)-1].n++
				} else {
					out[t].q = append(q, asks{int32(u), 1, int32(j)})
				}
			}
			l.vals = vals
		}
		c.Messages += int64(m)
	}
	r.SetState(st)
}

// gateRange decides the fate of the messages generated this round for the
// vertices in worker w's share of the vertex space. Walking a vertex's
// fresh segments in worker order gives every message its serial per-target
// index k — a run of n requests is n indices — so the gate, a pure function
// of (round, endpoints, index), answers the same at any worker count.
// Requests and responses have separate index spaces; a round generates
// only one kind, and everything queued of that kind is fresh because every
// vertex was served or emptied before generation. A request run keeps the
// copies its messages are allowed in total: a duplicate is served twice in
// a row. A response segment is rebuilt through the worker's scratch: a
// dropped value is omitted, a duplicated one written twice.
func (e *Engine) gateRange(w int) {
	c := &e.cells[w]
	lo, hi := e.Chunk(len(e.Owner), w)
	for t := lo; t < hi; t++ {
		k := 0
		for sw := range e.reqs {
			if e.pr%2 == 0 {
				q := e.reqs[sw][t].q
				for i := range q {
					n := int32(0)
					for end := k + int(q[i].n); k < end; k++ {
						n += e.copies(c, uint64(q[i].v)+1, t, k)
					}
					q[i].n = n
				}
				continue
			}
			a := &e.resps[sw][t]
			vals := a.vals.q
			c.scratch = c.scratch[:0]
			for i := range a.spans.q {
				sp := &a.spans.q[i]
				fresh := vals[:sp.n]
				vals, sp.n = vals[sp.n:], 0
				for _, v := range fresh {
					for cp := e.copies(c, uint64(v)+e.RespFrom, t, k); cp > 0; cp-- {
						c.scratch = append(c.scratch, v)
						sp.n++
					}
					k++
				}
			}
			a.vals.q = append(a.vals.q[:0], c.scratch...)
		}
	}
}

// copies asks the gate how often the k-th message to vertex t this round
// is delivered, and counts a drop or a duplicate.
func (e *Engine) copies(c *cell, from uint64, t, k int) int32 {
	switch e.gate.CopiesAt(e.Round, from, uint64(t)+1, k) {
	case 0:
		c.FaultDrops++
		return 0
	case 1:
		return 1
	}
	c.FaultDups++
	return 2
}

// Queued returns how many requests and responses wait at vertex u, a
// duplicate counting twice and a dropped message not at all.
func (e *Engine) Queued(u int) (reqs, resps int) {
	for w := range e.reqs {
		for _, rq := range e.reqs[w][u].q {
			reqs += int(rq.n)
		}
		resps += len(e.resps[w][u].vals.q)
	}
	return reqs, resps
}

// Held returns how many list entries vertex u holds.
func (e *Engine) Held(u int) (n int) {
	for _, l := range e.lists[u*e.dim : (u+1)*e.dim] {
		n += int(l.coins) + len(l.vals)
	}
	return n
}
