package sampling

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// referenceSampler is HGraphSampler as it stood before its data path
// was rebuilt (comparison sort, append-grown M_0, one allocation per
// served batch), kept verbatim as the oracle of
// TestSamplerMatchesReference: the rebuilt sampler must consume the
// same randomness and send the same messages in the same order.
type referenceSampler struct {
	p      HGraphParams
	self   int
	idOf   func(int) sim.NodeID
	fail   *int
	stats  *BudgetStats
	idBits int
	T      int
	step   int // completed HandleRound calls; odd = serve, even = collect
	M      Multiset[int32]
}

// Start begins a sampling run in the current round: it performs the
// phase-1 local walks (walks of length 1 over the neighbor multiset)
// and sends the first request batches. neighbors is the node's
// multigraph neighbor list with multiplicity (length p.D); idOf maps
// graph vertices to sim ids; fail (optional) counts extraction-from-
// empty events; stats (optional) is the shared budget tally.
func (s *referenceSampler) Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
	idOf func(int) sim.NodeID, fail *int, stats *BudgetStats) {

	s.p = p
	s.self = self
	s.idOf = idOf
	s.fail = fail
	s.stats = stats
	s.idBits = sim.IDBits(p.N)
	s.T = p.T()
	s.step = 0
	s.M = Multiset[int32]{}

	r := ctx.RNG()
	m0 := p.M(0)
	for j := 0; j < m0; j++ {
		s.M.Add(int32(neighbors[r.Intn(len(neighbors))]))
	}
	s.sendRequests(ctx, 1)
}

// extract draws one walk endpoint from the multiset, substituting the
// node itself (and counting the refusal) when the multiset is empty.
func (s *referenceSampler) extract(ctx *sim.Ctx) int32 {
	w, ok := s.M.Extract(ctx.RNG())
	if !ok {
		if s.fail != nil {
			*s.fail++
		}
		if s.stats != nil {
			s.stats.Refused.Add(1)
		}
		return int32(s.self)
	}
	return w
}

// sendRequests issues iteration i's walk-extension requests, batched
// per target (identical targets collapse into one reqBatch message).
func (s *referenceSampler) sendRequests(ctx *sim.Ctx, i int) {
	mi := s.p.M(i)
	targets := make([]int32, mi)
	for j := 0; j < mi; j++ {
		targets[j] = s.extract(ctx)
	}
	if s.stats != nil {
		s.stats.Issued.Add(int64(mi))
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a] < targets[b] })
	for j := 0; j < mi; {
		k := j
		for k < mi && targets[k] == targets[j] {
			k++
		}
		count := k - j
		ctx.Send(s.idOf(int(targets[j])), reqBatch{Count: int32(count)}, count*s.idBits)
		if s.stats != nil {
			s.stats.ReqBatches.Add(1)
		}
		j = k
	}
}

// HandleRound consumes one round's inbox. Odd rounds since Start serve
// the incoming walk-extension requests; even rounds collect the
// responses into the multiset and issue the next iteration's requests.
// onOther (optional) receives messages that do not belong to the
// sampling protocol. Returns true when the run is complete (after 2·T()
// rounds); the caller then reads Samples().
func (s *referenceSampler) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool {
	s.step++
	if s.step&1 == 1 {
		// Serve round: answer each request batch with freshly extracted
		// walk endpoints.
		for _, m := range inbox {
			rb, ok := m.Payload.(reqBatch)
			if !ok {
				if onOther != nil {
					onOther(m)
				}
				continue
			}
			ids := make([]int32, rb.Count)
			for k := range ids {
				ids[k] = s.extract(ctx)
			}
			ctx.Send(m.From, respBatch{IDs: ids}, len(ids)*s.idBits)
			if s.stats != nil {
				s.stats.Served.Add(int64(rb.Count))
				s.stats.RespBatches.Add(1)
			}
		}
		return false
	}
	// Collect round for iteration i: the responses replace the multiset
	// (the walks grew by 2^(i-1) steps).
	i := s.step / 2
	collected := make([]int32, 0, s.p.M(i))
	for _, m := range inbox {
		rb, ok := m.Payload.(respBatch)
		if !ok {
			if onOther != nil {
				onOther(m)
			}
			continue
		}
		collected = append(collected, rb.IDs...)
	}
	s.M.Reset(collected)
	if i < s.T {
		s.sendRequests(ctx, i+1)
		return false
	}
	return true
}

// Samples returns the sampled vertices once HandleRound has returned
// true (length p.Samples() = m_T).
func (s *referenceSampler) Samples() []int {
	out := make([]int, s.M.Len())
	for k, w := range s.M.Items() {
		out[k] = int(w)
	}
	return out
}

// nodeSampler is what the differential harness drives: both the
// sampler and its frozen reference.
type nodeSampler interface {
	Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
		idOf func(int) sim.NodeID, fail *int, stats *BudgetStats)
	HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool
	Samples() []int
}

// foreignMsg is a non-sampling message the harness interleaves with the
// protocol's own traffic to exercise onOther.
type foreignMsg struct{ X uint64 }

type diffCase struct {
	name    string
	n       int
	p       HGraphParams
	vertex  func(v int) int // vertex name of graph node v; nil = identity
	foreign bool            // every node also sends foreignMsg each round
}

// diffRun is everything observable about one sampling run.
type diffRun struct {
	Inboxes  [][]uint64   // per node, per protocol round: hash of (from, payload value, bits) in inbox order
	Sends    []transcript // per node: (to, payload value, bits) of every Send, in send order (unwrapped nodes)
	Wire     [][]uint64   // per node, per sim round: raw inbox below the reliable endpoint (wrapped nodes)
	Others   [][]uint64   // per node: payloads handed to onOther, each mixed with an RNG draw made inside it
	Samples  [][]int
	Failures []int
	NextRNG  []uint64 // per node: ctx.RNG().Uint64() right after completion
	Budget   BudgetSnapshot
	Work     []sim.RoundWork
	Rel      sim.ReliabilityTotals
}

type diffNode struct {
	s       nodeSampler
	c       *diffCase
	v       int
	nbrs    []int
	idOf    func(int) sim.NodeID
	stats   *BudgetStats
	out     *diffRun
	started bool
}

// transcript is an FNV-style running hash of message fields.
type transcript uint64

func (h *transcript) mix(x uint64) {
	if *h == 0 {
		*h = 14695981039346656037
	}
	*h = (*h ^ transcript(x)) * 1099511628211
}

func (h *transcript) payload(p any) {
	switch p := p.(type) {
	case reqBatch:
		h.mix(1)
		h.mix(uint64(p.Count))
	case respBatch:
		h.ids(p.IDs)
	case *respBatch:
		h.ids(p.IDs)
	case foreignMsg:
		h.mix(3)
		h.mix(p.X)
	case *reliable.Envelope:
		h.mix(4)
		h.mix(p.Seq)
		h.mix(uint64(p.Round))
		h.payload(p.Payload)
	case reliable.Ack:
		h.mix(5)
		h.mix(p.Seq)
	default:
		panic(fmt.Sprintf("unexpected payload %T", p))
	}
}

func (h *transcript) ids(ids []int32) {
	h.mix(2)
	h.mix(uint64(len(ids)))
	for _, id := range ids {
		h.mix(uint64(id))
	}
}

// hashInbox folds (from, payload kind and value, bits) of every
// message, in inbox order.
func hashInbox(inbox []sim.Message) uint64 {
	var h transcript
	for _, m := range inbox {
		h.mix(uint64(m.From))
		h.mix(uint64(m.Bits))
		h.payload(m.Payload)
	}
	return uint64(h)
}

// wireTap sits outside the reliable endpoint and records what arrives
// on the wire: envelopes carry the sender's sequence numbers, which is
// where the reliable layer makes the send order observable.
type wireTap struct {
	inner sim.Handler
	log   *[]uint64
}

func (w *wireTap) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	*w.log = append(*w.log, hashInbox(inbox))
	return w.inner.OnRound(ctx, inbox)
}

func (nd *diffNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	out, v := nd.out, nd.v
	out.Inboxes[v] = append(out.Inboxes[v], hashInbox(inbox))
	if nd.c.foreign {
		to := nd.nbrs[ctx.Round()%len(nd.nbrs)]
		ctx.Send(nd.idOf(to), foreignMsg{X: uint64(v)<<32 | uint64(ctx.Round())}, 8)
	}
	if !nd.started {
		nd.started = true
		if !nd.c.p.Reliable.Enabled() {
			// The synchronous inbox order hides the order a node sent
			// in (one batch per sender and receiver), faults, tracer and
			// envelope numbering do not: record it at the source.
			ctx.SetSendHook(func(to sim.NodeID, payload any, bits int) {
				h := &out.Sends[v]
				h.mix(uint64(to))
				h.mix(uint64(bits))
				h.payload(payload)
				ctx.SendRaw(to, payload, bits)
			})
		}
		nd.s.Start(ctx, nd.c.p, nd.c.vertexOf(v), nd.nbrs, nd.idOf, &out.Failures[v], nd.stats)
		return true
	}
	// onOther draws from the node's generator, so calling it anywhere
	// but at the foreign message's inbox position shifts every later
	// extraction.
	onOther := func(m sim.Message) {
		var h transcript
		h.payload(m.Payload)
		out.Others[v] = append(out.Others[v], uint64(h)^ctx.RNG().Uint64())
	}
	if !nd.s.HandleRound(ctx, inbox, onOther) {
		return true
	}
	out.Samples[v] = nd.s.Samples()
	out.NextRNG[v] = ctx.RNG().Uint64()
	return false
}

func (c *diffCase) vertexOf(v int) int {
	if c.vertex == nil {
		return v
	}
	return c.vertex(v)
}

// run executes the case with samplers made by mk, the way RapidHGraph
// sets a run up.
func (c *diffCase) run(seed uint64, mk func() nodeSampler) *diffRun {
	n, p := c.n, c.p
	h := hgraph.Random(rng.New(seed), n, p.D)
	net := sim.NewNetwork(sim.Config{Seed: seed, Shards: p.Shards, Latency: p.Latency})
	if inj := p.Faults.Injector(); inj != nil {
		net.SetInjector(inj)
	}
	stretch := 1
	if p.Reliable.Enabled() {
		stretch = p.Reliable.EffectiveStretch(p.Latency)
	}
	out := &diffRun{
		Inboxes: make([][]uint64, n), Others: make([][]uint64, n), Samples: make([][]int, n),
		Failures: make([]int, n), NextRNG: make([]uint64, n),
		Sends: make([]transcript, n), Wire: make([][]uint64, n),
	}
	stats := &BudgetStats{}
	// Vertex names map to sim ids through a non-identity idOf.
	idOf := func(name int) sim.NodeID { return sim.NodeID(2*name + 3) }
	for v := 0; v < n; v++ {
		nbrs := make([]int, 0, p.D)
		for _, w := range h.Neighbors(v) {
			nbrs = append(nbrs, c.vertexOf(w))
		}
		var hnd sim.Handler = &diffNode{s: mk(), c: c, v: v, nbrs: nbrs, idOf: idOf, stats: stats, out: out}
		if p.Reliable.Enabled() {
			hnd = &wireTap{inner: reliable.Wrap(seed, p.Reliable, stretch, hnd), log: &out.Wire[v]}
		}
		net.SpawnHandler(idOf(c.vertexOf(v)), hnd)
	}
	net.Run(reliable.StretchedRounds(p.Rounds(), stretch))
	net.Shutdown()
	out.Budget = stats.Snapshot()
	out.Work = net.Work()
	out.Rel = net.ReliabilityStats()
	return out
}

func diffCases(t *testing.T) []diffCase {
	small := func(edit func(*HGraphParams)) HGraphParams {
		p := DefaultHGraphParams(128, 8)
		if edit != nil {
			edit(&p)
		}
		return p
	}
	return []diffCase{
		{name: "c=1", n: 128, p: small(nil)},
		{name: "core-churn-schedule", n: 1024, p: HGraphParams{N: 1024, D: 8, Alpha: 2, Epsilon: 1, C: 1.9}},
		{name: "flat-budget-refusals", n: 128, p: small(func(p *HGraphParams) { p.FlatBudget = true })},
		// Names above N and above 2^IDBits(N), as core's ids are after a
		// few epochs of churn; the wide case needs three radix passes.
		{name: "ids-above-n", n: 128, p: small(nil), vertex: func(v int) int { return 5000 + 37*v }},
		{name: "ids-wide-range", n: 128, p: small(nil), vertex: func(v int) int { return 300 + 70001*v }},
		{name: "drop", n: 128, p: small(func(p *HGraphParams) { p.Faults = fault.Spec{Seed: 3, Drop: 0.05} })},
		{name: "dup", n: 128, p: small(func(p *HGraphParams) { p.Faults = fault.Spec{Seed: 3, Dup: 0.05} })},
		{name: "latency-reliable", n: 128, p: small(func(p *HGraphParams) {
			p.Latency = mustLatency(t, "uniform:1,3")
			p.Reliable = reliable.On()
		})},
		// Unprotected spread: batches arrive rounds late, in the wrong
		// phase (handed to onOther) or in a later iteration's collect
		// round — by which time a recycled serve buffer would have been
		// overwritten.
		{name: "latency-unprotected", n: 128, p: small(func(p *HGraphParams) { p.Latency = mustLatency(t, "uniform:1,3") })},
		{name: "foreign-messages", n: 128, p: small(nil), foreign: true},
		{name: "foreign-messages-drop", n: 128, foreign: true,
			p: small(func(p *HGraphParams) { p.Faults = fault.Spec{Seed: 5, Drop: 0.05} })},
		// What M_0 as neighbor indices adds and D = 8 on 128 vertices never
		// visits: Lemire's draw for a d that is no power of two in the fill;
		// a vertex in several slots of one neighbor list, which must still
		// get one reqBatch; a first collect that is also the last.
		{name: "d=6", n: 128, p: DefaultHGraphParams(128, 6)},
		{name: "multi-edges", n: 8, p: DefaultHGraphParams(8, 8)},
		{name: "one-iteration", n: 128, p: small(func(p *HGraphParams) { p.WalkOverride = 2 })},
	}
}

// matchReference runs the case through HGraphSampler, at one shard and
// at four, and through the frozen referenceSampler and requires the
// executions to be indistinguishable: same inbox transcript at every
// node and round, same samples, failures, budget tally, work log, and the
// same generator state afterwards. It returns the reference run.
func matchReference(t *testing.T, seed uint64, c diffCase) *diffRun {
	// The kernel is shard-invariant, so one reference run serves both
	// shard counts.
	want := c.run(seed, func() nodeSampler { return &referenceSampler{} })
	for _, shards := range []int{1, 4} {
		c := c
		c.p.Shards = shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := c.run(seed, func() nodeSampler { return &HGraphSampler{} })
			for v := 0; v < c.n; v++ {
				if !reflect.DeepEqual(got.Inboxes[v], want.Inboxes[v]) {
					for r := range want.Inboxes[v] {
						if r >= len(got.Inboxes[v]) || got.Inboxes[v][r] != want.Inboxes[v][r] {
							t.Fatalf("node %d: inbox of protocol round %d differs", v, r+1)
						}
					}
					t.Fatalf("node %d: %d rounds, want %d", v, len(got.Inboxes[v]), len(want.Inboxes[v]))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("runs differ beyond the transcript:\n got budget %+v rel %+v\nwant budget %+v rel %+v",
					got.Budget, got.Rel, want.Budget, want.Rel)
			}
		})
	}
	return want
}

// TestSamplerMatchesReference is matchReference on the hand-picked
// cases, each checked to reach what it is there for.
func TestSamplerMatchesReference(t *testing.T) {
	const seed = 11
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want := matchReference(t, seed, c)
			if want.Budget.Issued == 0 || want.Budget.Served == 0 {
				t.Fatalf("reference run did nothing: %+v", want.Budget)
			}
			if c.p.FlatBudget && want.Budget.Refused == 0 {
				t.Fatal("flat budget produced no refusals")
			}
			if c.foreign && len(want.Others[0]) == 0 {
				t.Fatal("no foreign message reached onOther")
			}
			if c.name == "multi-edges" {
				nbrs := hgraph.Random(rng.New(seed), c.n, c.p.D).Neighbors(0)
				if distinct := len(slices.Compact(slices.Sorted(slices.Values(nbrs)))); distinct == len(nbrs) {
					t.Fatalf("vertex 0's neighbor list %v repeats no vertex", nbrs)
				}
			}
			if c.name == "one-iteration" && c.p.T() != 1 {
				t.Fatalf("T = %d", c.p.T())
			}
		})
	}
}

// FuzzSamplerMatchesReference is matchReference on generated cases: the
// arguments decode to a seed, n ≤ 64, D ∈ {6, 8, 10, 12}, the budget
// constants, the two schedule overrides and drop/dup rates ≤ 0.1.
func FuzzSamplerMatchesReference(f *testing.F) {
	f.Add(uint64(11), uint8(60), uint8(1), uint8(7), uint8(15), false, uint8(0), uint8(0), uint8(0))
	f.Add(uint64(3), uint8(4), uint8(0), uint8(15), uint8(3), true, uint8(0), uint8(25), uint8(25))
	f.Add(uint64(5), uint8(20), uint8(3), uint8(0), uint8(8), false, uint8(2), uint8(0), uint8(10))
	f.Fuzz(func(t *testing.T, seed uint64, n, d, c, eps uint8, flat bool, walk, drop, dup uint8) {
		p := HGraphParams{
			N: 4 + int(n)%61, D: 6 + 2*int(d%4), Alpha: 2.5,
			C: float64(1+c%16) / 8, Epsilon: float64(1+eps%16) / 16,
			FlatBudget: flat, WalkOverride: int(walk % 17),
			Faults: fault.Spec{Seed: seed, Drop: float64(drop%26) / 250, Dup: float64(dup%26) / 250},
		}
		matchReference(t, seed, diffCase{n: p.N, p: p})
	})
}
