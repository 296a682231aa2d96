package core

import (
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
)

// coreNode is the reconfiguration protocol of Section 4: one sim.Handler
// per node. The switch in OnRound dispatches on p, the 1-based round
// within the current epoch; the draws and sends of each case, and their
// order, are pinned by TestEpochTranscriptGolden.
//
// Epoch layout for a member (R = 2T+2K+6 rounds, see EpochRounds):
//
//	p = 1             epoch init (find the node's index in the arena)
//	p = 2             collect hellos; start the rapid-sampling sub-phase
//	p = 3 .. 2T+2     drive the sampler; on completion (p = 2T+2) send
//	                  the Phase 1 placements
//	p = 2T+3          collect placements, permute; first doubling queries
//	p = 2T+4 .. 2T+3+2K   pointer doubling: odd offsets answer queries,
//	                  even offsets fold responses and issue the next step
//	                  (the last one sends the boundary messages instead)
//	p = 2T+4+2K       receive boundaries, reply with first elements
//	p = 2T+5+2K       collect replies; send Phase 4 assignments
//	p = R             receive assignments, commit; leavers depart here
//
// A joiner spends its first epoch collecting assignments (hello at
// p = 1, collect at p = 2..R, finalize at p = R) and then runs the
// member program from the next epoch on.
//
// Between epochs a node keeps only its id: its d/2 successor and
// predecessor pairs are its rows of the network's adopted topology
// block, at its index in the member list. Everything an epoch builds is
// in the plan's epochArena, found by the node's index in it, ix.
type coreNode struct {
	nw      *Network
	id      int
	p       int32 // rounds completed in the current epoch
	ix      int32 // the node's index in the epoch's arena
	joining bool
}

// epochArena is what Algorithm 3 builds in one epoch and no node needs
// after its commit: the nodes' slots and the members' phase state,
// indexed by coreNode.ix, and the payloads of the epoch's sends. RunEpoch
// makes one per epoch and drops it once the report is read. A payload
// is written once and never reused, so late, duplicated and
// retransmitted copies read what was sent. topo is the one thing that
// outlives the arena: the new topology block, a row per new member (see
// rows), which the network adopts.
type epochArena struct {
	slots     []slot        // one per old member, then one per joiner
	members   []memberState // one per old member
	cycles    []cycleState  // d/2 per old member
	neighbors []int         // d per old member: the lists handed to sampling.Start
	topo      []int32       // d per new member, at its slot's row

	ids     slab[int32] // hosted joiners and placed ids
	places  slab[placeMsg]
	resps   slab[dblResp]
	bounds  slab[boundMsg]
	replies slab[boundReply]
	assigns slab[assignMsg]
}

// memberState is one member's per-epoch state outside its cycles.
type memberState struct {
	sampler sampling.HGraphSampler
	joiners []int32 // hosted this epoch
	samples []int   // the sampler's output, consumed in order from si
	si      int
}

// cycleState is one member's Algorithm 3 state in one cycle. The member
// is active in the cycle iff seq is not empty.
type cycleState struct {
	seq              []int32 // ids placed here, permuted in Phase 2
	fwd              int32   // pointer-doubling jump target
	u0, uLast        int32   // the active neighbours' boundary elements
	resolved         bool    // fwd is the nearest active successor
	haveU0, haveLast bool
}

// newEpochArena makes the arena of an epoch that n old members and
// joins joiners run with degree d; RunEpoch sizes topo once it has
// checked the leavers. Each slab's chunk is an eighth of the n·d/2
// (member, cycle) pairs, so it wastes at most that.
func newEpochArena(n, joins, d int) *epochArena {
	chunk := max(n*d/16, 8)
	return &epochArena{
		slots:     make([]slot, n+joins),
		members:   make([]memberState, n),
		cycles:    make([]cycleState, n*d/2),
		neighbors: make([]int, n*d),
		ids:       slab[int32]{chunk: chunk},
		places:    slab[placeMsg]{chunk: chunk},
		resps:     slab[dblResp]{chunk: chunk},
		bounds:    slab[boundMsg]{chunk: chunk},
		replies:   slab[boundReply]{chunk: chunk},
		assigns:   slab[assignMsg]{chunk: chunk},
	}
}

// slab hands out elements of chunks it never reuses: a new chunk of at
// least chunk elements replaces one that runs short.
type slab[T any] struct {
	free  []T
	chunk int
}

// take returns k fresh elements.
func (s *slab[T]) take(k int) []T {
	if len(s.free) < k {
		s.free = make([]T, max(k, s.chunk))
	}
	out := s.free[:k:k]
	s.free = s.free[k:]
	return out
}

// put returns a fresh element holding v.
func (s *slab[T]) put(v T) *T {
	p := &s.take(1)[0]
	*p = v
	return p
}

// nextSample consumes the rapid-sampling budget in order, falling back
// to a uniformly chosen reuse (a counted FailBudget) when it runs out.
func (m *coreNode) nextSample(ctx *sim.Ctx, ms *memberState, st *slot) int {
	if ms.si < len(ms.samples) {
		v := ms.samples[ms.si]
		ms.si++
		return v
	}
	st.fails[FailBudget]++
	if len(ms.samples) == 0 {
		// Every sample was lost in transit (possible only under injected
		// message faults): place at self rather than crash.
		return m.id
	}
	return ms.samples[ctx.RNG().Intn(len(ms.samples))]
}

// OnDeliveryFailure implements reliable.FailureHandler: an exhausted
// retransmit budget is tallied as a FailDelivery protocol failure — the
// graceful-degradation contract is that the node *knows* the message is
// lost, and the epoch report shows it. A loss reported between the
// node's commit and its next epoch's first round belongs to no epoch.
func (m *coreNode) OnDeliveryFailure(to sim.NodeID) {
	if m.p > 0 {
		m.nw.plan.arena.slots[m.ix].fails[FailDelivery]++
	}
}

// send is ctx.Send, shown to the network's tap first.
func (m *coreNode) send(ctx *sim.Ctx, to sim.NodeID, payload any, bits int) {
	if m.nw.tap != nil {
		m.nw.tap(payload, true)
	}
	ctx.Send(to, payload, bits)
}

func (m *coreNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	nw := m.nw
	if nw.tap != nil {
		for _, msg := range inbox {
			nw.tap(msg.Payload, false)
		}
	}
	m.p++
	if m.joining {
		return m.joinerRound(ctx, inbox)
	}
	p, plan := int(m.p), nw.plan
	if p == 1 {
		// Epoch init; nothing is sent (joiners send hellos this round)
		// and nothing arrives (the commit round is silent). The old
		// members index the arena in member order.
		m.ix = int32(nw.indexOf(m.id))
	}
	a, ix := plan.arena, int(m.ix)
	st := &a.slots[ix]
	nc := nw.cfg.D / 2
	T, K, R, idBits := plan.T, plan.doubling, plan.rounds, plan.idBits
	ms, cs := &a.members[ix], a.cycles[ix*nc:][:nc]

	switch {
	case p == 1: // the index, found above, is all there is to do

	case p == 2:
		// Collect hellos; start rapid node sampling (Algorithm 1) over
		// the current topology.
		k := 0
		for _, msg := range inbox {
			if _, ok := msg.Payload.(helloMsg); ok {
				k++
			}
		}
		ms.joiners = a.ids.take(k)[:0]
		for _, msg := range inbox {
			if h, ok := msg.Payload.(helloMsg); ok {
				ms.joiners = append(ms.joiners, h.ID)
			}
		}
		d := nw.cfg.D
		neighbors := a.neighbors[ix*d:][:0:d]
		succ, pred := nw.rows(ix)
		for c := 0; c < nc; c++ {
			neighbors = append(neighbors, int(pred[c]), int(succ[c]))
		}
		ms.sampler.Start(ctx, plan.sampling, m.id, neighbors, &st.fails[FailSampling])

	case p <= 2*T+2:
		if samples, done := ms.sampler.HandleRound(ctx, inbox, nil); done {
			// p = 2T+2, Phase 1 of Algorithm 3: place own id (unless
			// leaving) and every hosted joiner's id at independently
			// sampled targets, one per cycle.
			ms.samples = samples
			for c := 0; c < nc; c++ {
				if !st.leaving {
					to := nw.idOf(m.nextSample(ctx, ms, st))
					m.send(ctx, to, a.places.put(placeMsg{Cycle: int8(c), ID: int32(m.id)}), idBits)
				}
				for _, j := range ms.joiners {
					to := nw.idOf(m.nextSample(ctx, ms, st))
					m.send(ctx, to, a.places.put(placeMsg{Cycle: int8(c), ID: j}), idBits)
				}
			}
		}

	case p == 2*T+3:
		// Phase 2: collect placements, in arrival order per cycle, and
		// permute each cycle's; then kick off pointer doubling (Phase 3)
		// with the first queries. Config.Validate bounds d/2 for count.
		var count [sampling.MaxDegree / 2]int
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(*placeMsg); ok {
				count[pm.Cycle]++
			}
		}
		for c := range cs {
			cs[c].seq = a.ids.take(count[c])[:0]
		}
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(*placeMsg); ok {
				cs[pm.Cycle].seq = append(cs[pm.Cycle].seq, pm.ID)
			}
		}
		r := ctx.RNG()
		for c := range cs {
			if seq := cs[c].seq; len(seq) > 0 {
				r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
			}
		}
		succ, _ := nw.rows(ix)
		for c := range cs {
			cs[c].fwd = succ[c]
			m.send(ctx, nw.idOf(int(cs[c].fwd)), dblQuery{Cycle: int8(c)}, idBits)
		}

	case p <= 2*T+3+2*K:
		q := p - (2*T + 3)
		if q&1 == 1 {
			// Respond with our status and current jump pointer as of the
			// start of this doubling step.
			for _, msg := range inbox {
				if qu, ok := msg.Payload.(dblQuery); ok {
					cc := &cs[qu.Cycle]
					m.send(ctx, msg.From, a.resps.put(dblResp{
						Cycle:     qu.Cycle,
						Active:    len(cc.seq) > 0,
						Fwd:       cc.fwd,
						FwdActive: cc.resolved,
					}), 2*idBits)
				}
			}
		} else {
			// Fold this step's responses into the jump pointers.
			for _, msg := range inbox {
				if resp, ok := msg.Payload.(*dblResp); ok {
					cc := &cs[resp.Cycle]
					if cc.resolved {
						continue
					}
					if resp.Active {
						cc.resolved = true // fwd already points at the responder
					} else {
						cc.fwd = resp.Fwd
						cc.resolved = resp.FwdActive
					}
				}
			}
			if q < 2*K {
				// Issue the next doubling step's queries.
				for c := range cs {
					if !cs[c].resolved {
						m.send(ctx, nw.idOf(int(cs[c].fwd)), dblQuery{Cycle: int8(c)}, idBits)
					}
				}
			} else {
				// Doubling done: active nodes send their last sequence
				// element to their nearest active successor.
				for c := range cs {
					cc := &cs[c]
					if len(cc.seq) > 0 {
						if !cc.resolved {
							st.fails[FailDoubling]++
							continue
						}
						m.send(ctx, nw.idOf(int(cc.fwd)),
							a.bounds.put(boundMsg{Cycle: int8(c), Last: cc.seq[len(cc.seq)-1]}), idBits)
					}
				}
			}
		}

	case p == 2*T+4+2*K:
		// Receive the boundary element from the nearest active
		// predecessor; reply with our first element.
		for _, msg := range inbox {
			if b, ok := msg.Payload.(*boundMsg); ok {
				cc := &cs[b.Cycle]
				if cc.haveU0 || len(cc.seq) == 0 {
					// Two active predecessors, or a boundary sent to an
					// inactive node (a late doubling response under
					// latency spread): a doubling failure, no reply.
					st.fails[FailBound]++
					continue
				}
				cc.u0 = b.Last
				cc.haveU0 = true
				m.send(ctx, msg.From, a.replies.put(boundReply{Cycle: b.Cycle, First: cc.seq[0]}), idBits)
			}
		}

	case p == 2*T+5+2*K:
		// Collect replies; send the Phase 4 assignments.
		for _, msg := range inbox {
			if br, ok := msg.Payload.(*boundReply); ok {
				cs[br.Cycle].uLast = br.First
				cs[br.Cycle].haveLast = true
			}
		}
		for c := range cs {
			cc := &cs[c]
			seq := cc.seq
			mLen := len(seq)
			if mLen == 0 {
				continue
			}
			if !cc.haveU0 {
				st.fails[FailBound]++
				cc.u0 = seq[mLen-1]
			}
			if !cc.haveLast {
				st.fails[FailBound]++
				cc.uLast = seq[0]
			}
			for i := 0; i < mLen; i++ {
				p0 := cc.u0
				if i > 0 {
					p0 = seq[i-1]
				}
				s0 := cc.uLast
				if i < mLen-1 {
					s0 = seq[i+1]
				}
				m.send(ctx, nw.idOf(int(seq[i])), a.assigns.put(assignMsg{Cycle: int8(c), Pred: p0, Succ: s0}), 2*idBits)
			}
		}

	case p == R:
		// A leaver departs; a staying member writes the new neighbors to
		// its row of the new topology block. The next OnRound is round 1
		// of the next epoch.
		if st.leaving {
			return false
		}
		succ, pred := rows(a.topo, int(st.row), nw.cfg.D)
		for _, msg := range inbox {
			if as, ok := msg.Payload.(*assignMsg); ok {
				succ[as.Cycle] = as.Succ
				pred[as.Cycle] = as.Pred
				st.assigned++
			}
		}
		if st.assigned != nc {
			st.fails[FailAssign]++
		}
		m.p = 0
	}
	return true
}

// joinerRound is a joiner's first epoch: announce at p = 1, collect
// assignments until the epoch's final round, then become a member.
func (m *coreNode) joinerRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	nw, plan := m.nw, m.nw.plan
	st := &plan.arena.slots[m.ix]
	if m.p == 1 {
		m.send(ctx, nw.idOf(int(st.sponsor)), helloMsg{ID: int32(m.id)}, plan.idBits)
		return true
	}
	succ, pred := rows(plan.arena.topo, int(st.row), nw.cfg.D)
	for _, msg := range inbox {
		if a, ok := msg.Payload.(*assignMsg); ok {
			succ[a.Cycle] = a.Succ
			pred[a.Cycle] = a.Pred
			st.assigned++
		}
	}
	if int(m.p) < plan.rounds {
		return true
	}
	if st.assigned != nw.cfg.D/2 {
		st.fails[FailAssign]++
	}
	m.joining = false
	m.p = 0
	return true
}
