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
// per epoch. What all of a network's nodes share is a Run. Usage:
//
//	run := NewRun(p, idOf, stats)         // once per network and run
//	s.Start(ctx, run, ...)                // in some round r: first requests
//	for each following round:             // rounds r+1 .. r+2T
//	    samples, done := s.HandleRound(ctx, inbox, onOther)
//
// HandleRound returns the samples and true at the end of round r+2T,
// i.e. after exactly 2·T() rounds. All nodes of the network must drive
// their samplers in the same rounds with the same Run.
type HGraphSampler struct {
	run  *Run // dropped when HandleRound returns true
	self int
	fail *int
	step int     // completed HandleRound calls; odd = serve, even = collect
	m0   int     // M_0's reads left
	M    []int32 // the multiset M_i of Algorithm 1, 1 ≤ i < T

	// M_0, the m_0 one-hop walks over the node's d neighbors, is only the
	// count of those left, m0: each read draws a fresh neighbor position
	// (DESIGN.md, "Sampling data path"). Iteration 1 (step < 2) reads it;
	// its collect round drops the neighbor list.
	neighbors []int
}

// Run is what every node of one sampling run shares: the budget
// schedule, the id width, the map from vertices to sim ids, the budget
// tally, and the request step's scratch. A driver makes one per network
// and run and drops it when the run ends, so no node keeps a schedule or
// scratch of its own. The kernel runs a network's handlers one at a
// time and a request step uses the scratch within one call, so one
// scratch serves all nodes.
type Run struct {
	m       []int // budget schedule m_0 … m_T
	idBits  int
	idOf    func(int) sim.NodeID
	stats   *BudgetStats
	targets []int32 // 2·m_2: an iteration's request targets and the radix pass's other buffer
	counts  []int32 // one counter per value of a radix digit of m_2 keys, and one more
}

// NewRun prepares a sampling run with parameters p: idOf maps graph
// vertices to sim ids; stats (optional) is the shared budget tally.
func NewRun(p HGraphParams, idOf func(int) sim.NodeID, stats *BudgetStats) *Run {
	r := &Run{m: p.schedule(), idBits: sim.IDBits(p.N), idOf: idOf, stats: stats}
	if len(r.m) > 2 {
		r.targets = make([]int32, 2*r.m[2])
		r.counts = make([]int32, 1<<digitBits(r.m[2])+1)
	}
	return r
}

// MaxDegree bounds a neighbor list: requestNeighbors groups iteration
// 1's requests in MaxDegree+1 counters on its stack.
const MaxDegree = 256

// Start begins the node's part of run in the current round: it sends
// iteration 1's request batches, each request a read of M_0 (a phase-1
// walk of length 1 over the neighbor multiset, drawn as it is read).
// neighbors is the node's multigraph neighbor list with multiplicity
// (at most MaxDegree long), which the sampler reads until iteration 1
// is over; fail (optional) counts extraction-from-empty events.
func (s *HGraphSampler) Start(ctx *sim.Ctx, run *Run, self int, neighbors []int, fail *int) {
	*s = HGraphSampler{run: run, self: self, fail: fail, m0: run.m[0], neighbors: neighbors}
	s.requestNeighbors(ctx)
}

// refuse counts n extractions from an empty multiset (answered: self).
func (s *HGraphSampler) refuse(n int) {
	if s.fail != nil {
		*s.fail += n
	}
	if s.run.stats != nil {
		s.run.stats.Refused += int64(n)
	}
}

// requestNeighbors issues iteration 1's requests, each a read of M_0.
// Its targets take at most d values, so d counters group them: one
// reqBatch per distinct vertex in ascending order, with the summed count
// where a vertex fills several slots of the neighbor list or is the node
// itself, substituted once M_0 ran empty.
func (s *HGraphSampler) requestNeighbors(ctx *sim.Ctx) {
	m1 := s.run.m[1]
	type batch struct{ vertex, count int32 }
	var buf [MaxDegree + 1]batch
	read := min(m1, s.m0)
	s.m0 -= read
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
			ctx.Send(s.run.idOf(int(b[j].vertex)), reqBatch{Count: count}, int(count)*s.run.idBits)
			batches++
		}
	}
	if st := s.run.stats; st != nil {
		st.Issued += int64(m1)
		st.ReqBatches += int64(batches)
	}
}

// extract fills dst with walk endpoints drawn from the multiset, in
// order, substituting the node itself (and counting the refusal) once
// the multiset is empty. In iteration 1 the multiset is M_0 and each
// draw is a read of it; later each is the reference's Multiset.Extract
// (reference_test.go) — r.Intn(len), swap-remove. Both are Lemire's
// draw on the generator held in registers, as in requestNeighbors.
func (s *HGraphSampler) extract(ctx *sim.Ctx, dst []int32) {
	r, items := ctx.RNG(), s.M
	rs := r.State()
	k := 0
	if s.step < 2 { // M is M_0 (and items empty)
		k = min(len(dst), s.m0)
		s.m0 -= k
		d := uint64(len(s.neighbors))
		for j := range dst[:k] {
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
	}
	for ; k < len(dst) && len(items) > 0; k++ {
		n := uint64(len(items))
		var x uint64
		x, rs = rs.Next()
		hi, lo := bits.Mul64(x, n)
		if lo < n {
			r.SetState(rs)
			hi = r.Uint64nTail(hi, lo, n)
			rs = r.State()
		}
		dst[k] = items[hi]
		items[hi] = items[n-1]
		items = items[:n-1]
	}
	r.SetState(rs)
	s.M = items
	s.refuse(len(dst) - k)
	for ; k < len(dst); k++ { // the multiset ran empty
		dst[k] = int32(s.self)
	}
}

// digitBits is the radix digit width for sorting n keys: bits.Len(n),
// at most 11, so that a pass costs O(n).
func digitBits(n int) int { return min(bits.Len(uint(n)), 11) }

// sendRequests issues iteration i's walk-extension requests, i ≥ 2,
// batched per target (identical targets collapse into one reqBatch
// message) and sent in ascending target order. When the drawn targets
// span less than one radix digit, one counting pass over that span
// groups them; otherwise radixSort orders them and a scan groups them.
func (s *HGraphSampler) sendRequests(ctx *sim.Ctx, i int) {
	mi, idOf, idBits := s.run.m[i], s.run.idOf, s.run.idBits
	targets := s.run.targets[:mi]
	s.extract(ctx, targets)
	lo, hi := targets[0], targets[0]
	for _, v := range targets {
		lo, hi = min(lo, v), max(hi, v)
	}
	batches := 0
	if span := uint32(hi - lo); span < 1<<digitBits(mi) {
		counts := s.run.counts[:span+1]
		clear(counts)
		for _, v := range targets {
			counts[v-lo]++
		}
		for d, count := range counts {
			if count > 0 {
				ctx.Send(idOf(int(lo)+d), reqBatch{Count: count}, int(count)*idBits)
				batches++
			}
		}
	} else {
		half := len(s.run.targets) / 2
		targets = radixSort(targets, s.run.targets[half:half+mi], s.run.counts, lo, hi)
		for j, k := 0, 0; j < mi; j = k {
			for k < mi && targets[k] == targets[j] {
				k++
			}
			ctx.Send(idOf(int(targets[j])), reqBatch{Count: int32(k - j)}, (k-j)*idBits)
			batches++
		}
	}
	if st := s.run.stats; st != nil {
		st.Issued += int64(mi)
		st.ReqBatches += int64(batches)
	}
}

// radixSort sorts a, whose least and greatest values are lo and hi,
// ascending, using tmp (of the same length) as the second buffer and
// table (1<<digitBits(len(a))+1 entries at least) as the counters, and
// returns whichever of a and tmp ends up holding the result. It is an
// LSD radix sort on v − lo with digits of digitBits(len(a)) bits, so
// that a pass costs O(len(a)) — the final iterations sort a few dozen
// targets — and the passes follow the observed id range: nothing is
// sized by N or IDBits(N), since vertex ids are names (core's grow
// under churn).
func radixSort(a, tmp, table []int32, lo, hi int32) []int32 {
	w := digitBits(len(a))
	mask := uint32(1)<<w - 1
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
// sampling protocol. It returns true when the run is complete (after
// 2·T() rounds), with the sampled vertices (m_T of them unless messages
// were lost or duplicated); the sampler then holds nothing.
func (s *HGraphSampler) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) ([]int, bool) {
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
			ctx.Send(m.From, resp, n*s.run.idBits)
		}
		if st := s.run.stats; st != nil {
			st.Served += int64(total)
			st.RespBatches += int64(batches)
		}
		return nil, false
	}
	// Collect round for iteration i: the responses replace the multiset
	// (the walks grew by 2^(i-1) steps) and are written over it, except
	// that M_1 — M_0 is a count — gets storage of its own size, and the
	// final M_T goes through the run's scratch into the samples.
	i, T := s.step/2, len(s.run.m)-1
	collected := s.M[:0]
	switch i {
	case T:
		collected = s.run.targets[:0]
	case 1:
		collected = make([]int32, 0, s.run.m[1])
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
	if i == T {
		samples := make([]int, len(collected))
		for k, w := range collected {
			samples[k] = int(w)
		}
		*s = HGraphSampler{}
		return samples, true
	}
	s.M = collected
	s.sendRequests(ctx, i+1)
	return nil, false
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
