package committee

import (
	"math"
	"math/bits"
	"slices"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// entry is one queued vertex-level message: a request carries the asking
// vertex, a response the sampled one; j is the asker's list. copies is how
// many deliveries the gate allows — 1 unless a gate pass marked the
// message dropped (0) or duplicated (2).
type entry struct {
	v      int32
	j      int16
	copies uint8
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
	// lists[u·D+j−1] is vertex u's list j (the paper's M). One flat slice
	// of lists: the hot draw loads a single slice header.
	lists   [][]int32
	Samples [][]int32 // a vertex's final sample; nil until its last collect
	// Owner[u] is the committee simulating vertex u, −1 for none: messages
	// to such a vertex are dropped as they are generated.
	Owner  []int32
	reqs   [][][]entry
	resps  [][][]entry
	routed [][][]sim.NodeID // Route/Gather segments, [worker][committee]
	pr     int              // primitive round being simulated
	marked bool             // a gate pass has run this epoch: copies may differ from 1
}

// Reset empties the primitive's state for a new epoch over nVerts vertices
// of dimension d with budget schedule mi, keeping every arena. The stack
// fills Owner afterwards.
func (e *Engine) Reset(nVerts, d int, mi []int) {
	for w := range e.cells {
		c := &e.cells[w]
		for _, t := range c.tight {
			if r := reserve(t.n); cap(*t.seg)-t.n < r {
				*t.seg = make([]entry, 0, t.n+2*r)
			}
		}
		c.tight = c.tight[:0]
	}
	e.dim, e.mi = d, mi
	// slices.Grow keeps what the backing array holds, so arenas survive.
	e.lists = slices.Grow(e.lists[:0], nVerts*d)[:nVerts*d]
	for i := range e.lists {
		e.lists[i] = e.lists[i][:0]
	}
	e.Samples = slices.Grow(e.Samples[:0], nVerts)[:nVerts]
	clear(e.Samples) // a stalled final collect must see no sample
	e.Owner = slices.Grow(e.Owner[:0], nVerts)[:nVerts]
	for w := range e.reqs {
		e.reqs[w] = slices.Grow(e.reqs[w][:0], nVerts)[:nVerts]
		e.resps[w] = slices.Grow(e.resps[w][:0], nVerts)[:nVerts]
		for u := range e.reqs[w] {
			e.reqs[w][u] = e.reqs[w][u][:0]
			e.resps[w][u] = e.resps[w][u][:0]
		}
	}
	e.marked = false
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
				e.reqs[w][u] = e.reqs[w][u][:0]
				e.resps[w][u] = e.resps[w][u][:0]
			}
		}
	}
	e.Each(phaseSim)
	if e.gate != nil {
		e.marked = true
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
// complete and it carries over. When D is a power of two (§5) that never
// happens.
func (e *Engine) vertexRound(w int, r *rng.RNG, u int) {
	c := &e.cells[w]
	d, pr := e.dim, e.pr
	base := u * d
	switch {
	case pr == 0:
		// Phase 1: fill every list with m₀ one-hop walks, then ask.
		m0 := e.mi[0]
		for j := 1; j <= d; j++ {
			list := e.lists[base+j-1]
			if cap(list) < m0 {
				list = make([]int32, m0)
			}
			list = list[:m0]
			e.Fill(r, u, j, list)
			e.lists[base+j-1] = list
		}
		e.request(w, r, u, 1)
	case pr%2 == 1:
		// Serve iteration i = (pr+1)/2: answer each request for list j
		// with a draw from list j+2^(i−1).
		half := 1 << ((pr+1)/2 - 1)
		M, owner, out := e.lists, e.Owner, e.resps[w]
		msgs := 0
		for sw := range e.reqs {
			q := e.reqs[sw][u]
			for _, rq := range q {
				for k := rq.copies; k > 0; k-- {
					mx := base + int(rq.j) + half - 1
					list := M[mx]
					v := int32(u)
					if n := uint64(len(list)); n == 0 {
						c.SampleFails++
					} else {
						// r.Intn(n) with the Lemire fast path inlined.
						hi, lo := bits.Mul64(r.Uint64(), n)
						if lo < n {
							hi = r.Uint64nTail(hi, lo, n)
						}
						v = list[hi]
						list[hi] = list[n-1]
						M[mx] = list[:n-1]
					}
					msgs++
					if owner[rq.v] >= 0 {
						out[rq.v] = append(out[rq.v], entry{v: v, j: rq.j, copies: 1})
					}
				}
			}
			e.drained(c, &e.reqs[sw][u])
		}
		c.Messages += int64(msgs)
	default:
		// Collect iteration i = pr/2, then ask for the next. Lists
		// j ≢ 1 (mod 2^i) have been drawn from for the last time and are
		// emptied; the asking lists are refilled through per-list cursors
		// (count, reslice once, place by index; D is well under 64); a list
		// whose block was complete carries over.
		i := pr / 2
		step := 1 << i
		var cnt, cur [64]int32
		for sw := range e.resps {
			for _, rp := range e.resps[sw][u] {
				cnt[rp.j] += int32(rp.copies)
			}
		}
		for j := 1; j <= d; j++ {
			list := e.lists[base+j-1]
			switch {
			case (j-1)&(step-1) != 0:
				list = list[:0]
			case j+step/2 <= d:
				n := int(cnt[j])
				if cap(list) < n {
					list = make([]int32, n)
				}
				list = list[:n]
			}
			e.lists[base+j-1] = list
		}
		for sw := range e.resps {
			q := e.resps[sw][u]
			for _, rp := range q {
				for k := rp.copies; k > 0; k-- {
					e.lists[base+int(rp.j)-1][cur[rp.j]] = rp.v
					cur[rp.j]++
				}
			}
			e.drained(c, &e.resps[sw][u])
		}
		if i < len(e.mi)-1 {
			e.request(w, r, u, i+1)
		} else {
			// M is a multiset, but the queues deliver in sender order:
			// shuffle so the reorganization's first k samples are uniform.
			final := e.lists[base]
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

// tightSeg is a segment that was consumed holding n messages with less
// than reserve(n) to spare.
type tightSeg struct {
	seg *[]entry
	n   int
}

// drained empties the consumed segment for the next round. With more than
// one worker, a segment that ran its reserve down is noted for Reset,
// which replaces its arena at the epoch boundary: arenas then settle in
// the first epochs instead of growing at every new record, and a
// steady-state sampling round allocates nothing at any worker count.
func (e *Engine) drained(c *cell, seg *[]entry) {
	if n := len(*seg); e.shards > 1 && cap(*seg)-n < reserve(n) {
		c.tight = append(c.tight, tightSeg{seg, n})
	}
	*seg = (*seg)[:0]
}

// request sends iteration i's requests from vertex u: mᵢ draws from each
// list j ≡ 1 (mod 2^i) whose block is still incomplete, each asking the
// drawn vertex to extend the walk.
func (e *Engine) request(w int, r *rng.RNG, u, i int) {
	c := &e.cells[w]
	d, m := e.dim, e.mi[i]
	step := 1 << i
	owner, out := e.Owner, e.reqs[w]
	for j := 1; j+step/2 <= d; j += step {
		msg := entry{v: int32(u), j: int16(j), copies: 1}
		list := e.lists[u*d+j-1]
		for k := 0; k < m; k++ {
			target := int32(u)
			if n := uint64(len(list)); n == 0 {
				c.SampleFails++
			} else {
				// r.Intn(n) with the Lemire fast path inlined.
				hi, lo := bits.Mul64(r.Uint64(), n)
				if lo < n {
					hi = r.Uint64nTail(hi, lo, n)
				}
				target = list[hi]
				list[hi] = list[n-1]
				list = list[:n-1]
			}
			if owner[target] >= 0 {
				out[target] = append(out[target], msg)
			}
		}
		e.lists[u*d+j-1] = list
		c.Messages += int64(m)
	}
}

// gateRange decides the fate of the messages generated this round for the
// vertices in worker w's share of the vertex space. Walking a vertex's
// fresh segments in worker order gives every message its serial per-target
// index, so the gate — a pure function of (round, endpoints, index) —
// answers the same at any worker count. Requests and responses have
// separate index spaces; a round generates only one kind, and everything
// queued of that kind is fresh because every vertex was served or emptied
// before generation.
func (e *Engine) gateRange(w int) {
	c := &e.cells[w]
	segs, from := e.reqs, uint64(1)
	if e.pr%2 == 1 {
		segs, from = e.resps, e.RespFrom
	}
	lo, hi := e.Chunk(len(e.Owner), w)
	for t := lo; t < hi; t++ {
		k := 0
		for sw := range segs {
			q := segs[sw][t]
			for i := range q {
				switch e.gate.CopiesAt(e.Round, uint64(q[i].v)+from, uint64(t)+1, k) {
				case 0:
					q[i].copies = 0
					c.FaultDrops++
				case 1:
				default:
					q[i].copies = 2
					c.FaultDups++
				}
				k++
			}
		}
	}
}

// Queued returns how many requests and responses wait at vertex u, a
// duplicate counting twice and a dropped message not at all.
func (e *Engine) Queued(u int) (reqs, resps int) {
	for w := range e.reqs {
		if !e.marked {
			reqs += len(e.reqs[w][u])
			resps += len(e.resps[w][u])
			continue
		}
		for _, m := range e.reqs[w][u] {
			reqs += int(m.copies)
		}
		for _, m := range e.resps[w][u] {
			resps += int(m.copies)
		}
	}
	return reqs, resps
}

// Held returns how many list entries vertex u holds.
func (e *Engine) Held(u int) (n int) {
	for _, list := range e.lists[u*e.dim : (u+1)*e.dim] {
		n += len(list)
	}
	return n
}
