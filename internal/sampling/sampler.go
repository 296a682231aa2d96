package sampling

import (
	"cmp"
	"math/bits"
	"slices"

	"overlaynet/internal/sim"
)

// HGraphSampler is the per-node part of Algorithm 1 (rapid node
// sampling in ℍ-graphs) as a state machine, so that any node program
// (sim.Handler) can run rapid sampling as a sub-phase — rapidNode does
// nothing else, the reconfiguration network of Section 4 does it once
// per epoch. Usage:
//
//	Start(ctx, ...)              // in some round r: first requests
//	for each following round:    // rounds r+1 .. r+2T
//	    done := HandleRound(ctx, inbox, onOther)
//	Samples()                    // after HandleRound returns true
//
// HandleRound returns true at the end of round r+2T, i.e. after exactly
// 2·T() rounds. All nodes of the network must drive their samplers in
// the same rounds with the same parameters.
type HGraphSampler struct {
	self   int
	idOf   func(int) sim.NodeID
	fail   *int
	stats  *BudgetStats
	idBits int
	step   int     // completed HandleRound calls; odd = serve, even = collect
	M      []int32 // the multiset M_i of Algorithm 1, i ≥ 1

	// M_0, the m_0 one-hop walks over the node's d neighbors, is only the
	// count of those left, m[0]: each read draws a fresh neighbor position
	// (DESIGN.md, "Sampling data path"). Iteration 1 (step < 2) reads it;
	// its collect round drops the neighbor list.
	neighbors []int

	// Run scratch, allocated by Start and dropped when HandleRound
	// returns true: the node programs that embed a sampler outlive the
	// run by many epochs and must not keep its buffers.
	m       []int   // budget schedule m_0 … m_T, m_0 counted down by M_0's reads
	targets []int32 // 2·m_2: an iteration's request targets and the radix pass's other buffer
}

// MaxDegree bounds a neighbor list: requestNeighbors groups iteration
// 1's requests in MaxDegree+1 counters on its stack.
const MaxDegree = 256

// Start begins a sampling run in the current round: it sends iteration
// 1's request batches, each request a read of M_0 (a phase-1 walk of
// length 1 over the neighbor multiset, drawn as it is read). neighbors
// is the node's multigraph neighbor list with multiplicity (length
// p.D ≤ MaxDegree), which the sampler reads until iteration 1 is over;
// idOf maps graph vertices to sim ids; fail (optional) counts
// extraction-from-empty events; stats (optional) is the shared budget
// tally.
func (s *HGraphSampler) Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
	idOf func(int) sim.NodeID, fail *int, stats *BudgetStats) {

	*s = HGraphSampler{self: self, idOf: idOf, fail: fail, stats: stats,
		idBits: sim.IDBits(p.N), m: p.schedule(), neighbors: neighbors}
	if len(s.m) > 2 {
		s.targets = make([]int32, 2*s.m[2])
	}
	s.requestNeighbors(ctx)
}

// refuse counts n extractions from an empty multiset (answered: self).
func (s *HGraphSampler) refuse(n int) {
	if s.fail != nil {
		*s.fail += n
	}
	if s.stats != nil {
		s.stats.Refused += int64(n)
	}
}

// requestNeighbors issues iteration 1's requests, each a read of M_0.
// Its targets take at most d values, so d counters group them: one
// reqBatch per distinct vertex in ascending order, with the summed count
// where a vertex fills several slots of the neighbor list or is the node
// itself, substituted once M_0 ran empty.
func (s *HGraphSampler) requestNeighbors(ctx *sim.Ctx) {
	m1 := s.m[1]
	type batch struct{ vertex, count int32 }
	var buf [MaxDegree + 1]batch
	read := min(m1, s.m[0])
	s.m[0] -= read
	r, d := ctx.RNG(), uint64(len(s.neighbors))
	rs := r.State()
	for range read { // r.Intn(d), Lemire's draw on the generator held in registers
		var x uint64
		x, rs = rs.Next()
		slot, lo := bits.Mul64(x, d)
		if lo < d {
			r.SetState(rs)
			slot = r.Uint64nTail(slot, lo, d)
			rs = r.State()
		}
		buf[slot].count++
	}
	r.SetState(rs)
	b := buf[:len(s.neighbors)+1]
	for slot, v := range s.neighbors {
		b[slot].vertex = int32(v)
	}
	b[len(b)-1] = batch{int32(s.self), int32(m1 - read)}
	s.refuse(m1 - read)
	slices.SortFunc(b, func(x, y batch) int { return cmp.Compare(x.vertex, y.vertex) })
	batches := 0
	for j, k := 0, 0; j < len(b); j = k {
		count := int32(0)
		for ; k < len(b) && b[k].vertex == b[j].vertex; k++ {
			count += b[k].count
		}
		if count > 0 {
			ctx.Send(s.idOf(int(b[j].vertex)), reqBatch{Count: count}, int(count)*s.idBits)
			batches++
		}
	}
	if s.stats != nil {
		s.stats.Issued += int64(m1)
		s.stats.ReqBatches += int64(batches)
	}
}

// extract fills dst with walk endpoints drawn from the multiset, in
// order, substituting the node itself (and counting the refusal) once
// the multiset is empty. In iteration 1 the multiset is M_0 and each
// draw is a read of it; later each is the reference's Multiset.Extract
// (reference_test.go) — r.Intn(len), swap-remove — with the Lemire fast
// path of Intn inlined.
func (s *HGraphSampler) extract(ctx *sim.Ctx, dst []int32) {
	r, items := ctx.RNG(), s.M
	k := 0
	if s.step < 2 { // M is M_0 (and items empty)
		k = min(len(dst), s.m[0])
		s.m[0] -= k
		rs, d := r.State(), uint64(len(s.neighbors))
		for j := range dst[:k] { // requestNeighbors' draw
			var x uint64
			x, rs = rs.Next()
			slot, lo := bits.Mul64(x, d)
			if lo < d {
				r.SetState(rs)
				slot = r.Uint64nTail(slot, lo, d)
				rs = r.State()
			}
			dst[j] = int32(s.neighbors[slot])
		}
		r.SetState(rs)
	}
	for ; k < len(dst) && len(items) > 0; k++ {
		n := uint64(len(items))
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo < n {
			hi = r.Uint64nTail(hi, lo, n)
		}
		dst[k] = items[hi]
		items[hi] = items[n-1]
		items = items[:n-1]
	}
	s.M = items
	s.refuse(len(dst) - k)
	for ; k < len(dst); k++ { // the multiset ran empty
		dst[k] = int32(s.self)
	}
}

// sendRequests issues iteration i's walk-extension requests, i ≥ 2,
// batched per target (identical targets collapse into one reqBatch
// message) and sent in ascending target order.
func (s *HGraphSampler) sendRequests(ctx *sim.Ctx, i int) {
	mi := s.m[i]
	half := len(s.targets) / 2
	targets := s.targets[:mi]
	s.extract(ctx, targets)
	targets = radixSort(targets, s.targets[half:half+mi])
	batches := 0
	for j := 0; j < mi; {
		k := j
		for k < mi && targets[k] == targets[j] {
			k++
		}
		count := k - j
		ctx.Send(s.idOf(int(targets[j])), reqBatch{Count: int32(count)}, count*s.idBits)
		batches++
		j = k
	}
	if s.stats != nil {
		s.stats.Issued += int64(mi)
		s.stats.ReqBatches += int64(batches)
	}
}

// radixSort sorts a ascending, using tmp (of the same length) as the
// second buffer, and returns whichever of the two ends up holding the
// result. It is an LSD radix sort on v − min(a) with digits of
// bits.Len(len(a)) bits, at most 11, so that a pass costs O(len(a)) —
// the final iterations sort a few dozen targets — and the passes follow
// the observed id range: nothing is sized by N or IDBits(N), since
// vertex ids are names (core's grow under churn).
func radixSort(a, tmp []int32) []int32 {
	lo, hi := a[0], a[0]
	for _, v := range a {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := min(bits.Len(uint(len(a))), 11)
	mask := uint32(1)<<w - 1
	var table [1<<11 + 1]int32
	for shift := 0; uint32(hi-lo)>>shift != 0; shift += w {
		top := min(uint32(hi-lo)>>shift, mask) // the largest digit of this pass
		pos := table[:top+2]                   // pos[d+1] counts digit d, then pos[d] is where digit d goes next
		clear(pos)
		for _, v := range a {
			pos[uint32(v-lo)>>shift&mask+1]++
		}
		for d := 1; d < len(pos); d++ {
			pos[d] += pos[d-1]
		}
		for _, v := range a {
			d := uint32(v-lo) >> shift & mask
			tmp[pos[d]] = v
			pos[d]++
		}
		a, tmp = tmp, a
	}
	return a
}

// HandleRound consumes one round's inbox. Odd rounds since Start serve
// the incoming walk-extension requests; even rounds collect the
// responses into the multiset and issue the next iteration's requests.
// onOther (optional) receives messages that do not belong to the
// sampling protocol. Returns true when the run is complete (after 2·T()
// rounds); the caller then reads Samples().
func (s *HGraphSampler) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool {
	s.step++
	if s.step&1 == 1 {
		// Serve round: answer each request batch with freshly extracted
		// walk endpoints. The round's batches are carved out of two
		// arrays sized by its summed Counts; they are never reused,
		// because the payloads stay referenced by late deliveries,
		// injected duplicates and retransmit buffers.
		total, batches := 0, 0
		for _, m := range inbox {
			if rb, ok := m.Payload.(reqBatch); ok {
				total += int(rb.Count)
				batches++
			}
		}
		ids := make([]int32, total)
		resps := make([]respBatch, batches)
		for _, m := range inbox {
			rb, ok := m.Payload.(reqBatch)
			if !ok {
				if onOther != nil {
					onOther(m)
				}
				continue
			}
			n := int(rb.Count)
			resp := &resps[0]
			resp.IDs, ids, resps = ids[:n:n], ids[n:], resps[1:]
			s.extract(ctx, resp.IDs)
			ctx.Send(m.From, resp, n*s.idBits)
		}
		if s.stats != nil {
			s.stats.Served += int64(total)
			s.stats.RespBatches += int64(batches)
		}
		return false
	}
	// Collect round for iteration i: the responses replace the multiset
	// (the walks grew by 2^(i-1) steps) and are written over it, except
	// that M_1 — M_0 is a count — and the final M_T, so that the run's
	// buffers can go, get storage of their own size.
	i := s.step / 2
	collected := s.M[:0]
	if i == 1 || i == len(s.m)-1 {
		collected = make([]int32, 0, s.m[i])
		s.neighbors = nil
	}
	for _, m := range inbox {
		rb, ok := m.Payload.(*respBatch)
		if !ok {
			if onOther != nil {
				onOther(m)
			}
			continue
		}
		collected = append(collected, rb.IDs...)
	}
	s.M = collected
	if i < len(s.m)-1 {
		s.sendRequests(ctx, i+1)
		return false
	}
	s.m, s.targets = nil, nil
	return true
}

// Samples returns the sampled vertices once HandleRound has returned
// true (length p.Samples() = m_T).
func (s *HGraphSampler) Samples() []int {
	out := make([]int, len(s.M))
	for k, w := range s.M {
		out[k] = int(w)
	}
	return out
}

// BudgetStats tallies the sampling protocol's request budget across all
// nodes of a network, for the audit layer's conservation check: every
// request issued is answered by exactly one served grant (so with no
// message faults Issued == Served after each sampling window), and
// Refused counts extraction fallbacks where an empty multiset forced a
// node to substitute itself. ReqBatches/RespBatches count the Send
// calls, which reconcile against the RoundWork message totals of the
// sampling rounds. Every node of a network shares one BudgetStats; the
// kernel runs handlers one at a time, so plain fields suffice, and a
// copy is a snapshot.
type BudgetStats struct {
	Issued, Served, Refused int64
	ReqBatches, RespBatches int64
}
