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
//	p = 1             epoch init (capture leaving, reset failure tally)
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
type coreNode struct {
	nw *Network
	id int
	st *slot

	joining bool
	sponsor int

	p          int // rounds completed in the current epoch
	succ, pred []int32

	// Epoch-scoped parameters, captured at epoch init (p = 1) from the
	// driver's plan; the plan only changes between epochs.
	T, K, R, idBits int

	// Epoch-scoped protocol state, in order of appearance.
	leaving  bool
	joiners  []int32
	sampler  sampling.HGraphSampler
	samples  []int
	si       int
	seqs     [][]int32
	active   []bool
	fwd      []int32
	resolved []bool
	u0       []int32
	uLast    []int32
	haveU0   []bool
	haveLast []bool
	newSucc  []int32
	newPred  []int32
}

// nextSample consumes the rapid-sampling budget in order, falling back
// to a uniformly chosen reuse (a counted FailBudget) when it runs out.
func (m *coreNode) nextSample(ctx *sim.Ctx) int {
	if m.si < len(m.samples) {
		v := m.samples[m.si]
		m.si++
		return v
	}
	m.st.fails[FailBudget]++
	if len(m.samples) == 0 {
		// Every sample was lost in transit (possible only under injected
		// message faults): place at self rather than crash.
		return m.id
	}
	return m.samples[ctx.RNG().Intn(len(m.samples))]
}

// OnDeliveryFailure implements reliable.FailureHandler: an exhausted
// retransmit budget is tallied as a FailDelivery protocol failure — the
// graceful-degradation contract is that the node *knows* the message is
// lost, and the epoch report shows it.
func (m *coreNode) OnDeliveryFailure(to sim.NodeID) {
	m.st.fails[FailDelivery]++
}

func (m *coreNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	nw := m.nw
	m.p++
	p := m.p
	if p == 1 {
		plan := nw.plan
		m.T = plan.params.T()
		m.K = plan.doubling
		m.R = plan.rounds
		m.idBits = sim.IDBits(plan.params.N)
	}
	if m.joining {
		return m.joinerRound(ctx, inbox)
	}
	nc := nw.cfg.D / 2
	T, K, R := m.T, m.K, m.R

	switch {
	case p == 1:
		// Epoch init; nothing is sent (joiners send hellos this round)
		// and nothing arrives (the commit round is silent). The leaving
		// flag is captured here because the driver may mark the node as
		// a leaver of the NEXT epoch before this one has committed.
		m.leaving = m.st.leaving
		m.st.fails = [numFailKinds]int{}
		m.st.assigned = 0
		m.joiners = m.joiners[:0]

	case p == 2:
		// Collect hellos; start rapid node sampling (Algorithm 1) over
		// the current topology.
		for _, msg := range inbox {
			if h, ok := msg.Payload.(helloMsg); ok {
				m.joiners = append(m.joiners, h.ID)
			}
		}
		neighbors := make([]int, 0, nw.cfg.D)
		for c := 0; c < nc; c++ {
			neighbors = append(neighbors, int(m.pred[c]), int(m.succ[c]))
		}
		m.sampler.Start(ctx, nw.plan.sampling, m.id, neighbors, &m.st.fails[FailSampling])

	case p <= 2*T+2:
		if samples, done := m.sampler.HandleRound(ctx, inbox, nil); done {
			// p = 2T+2, Phase 1 of Algorithm 3: place own id (unless
			// leaving) and every hosted joiner's id at independently
			// sampled targets, one per cycle.
			m.samples = samples
			m.si = 0
			for c := 0; c < nc; c++ {
				if !m.leaving {
					ctx.Send(nw.idOf(m.nextSample(ctx)), placeMsg{Cycle: int8(c), ID: int32(m.id)}, m.idBits)
				}
				for _, j := range m.joiners {
					ctx.Send(nw.idOf(m.nextSample(ctx)), placeMsg{Cycle: int8(c), ID: j}, m.idBits)
				}
			}
		}

	case p == 2*T+3:
		// Phase 2: collect placements, permute per cycle; then kick off
		// pointer doubling (Phase 3) with the first queries.
		r := ctx.RNG()
		m.seqs = make([][]int32, nc)
		for _, msg := range inbox {
			if pm, ok := msg.Payload.(placeMsg); ok {
				m.seqs[pm.Cycle] = append(m.seqs[pm.Cycle], pm.ID)
			}
		}
		m.active = make([]bool, nc)
		m.st.placed = make([]int, nc)
		for c := 0; c < nc; c++ {
			m.st.placed[c] = len(m.seqs[c])
			if len(m.seqs[c]) > 0 {
				m.active[c] = true
				r.Shuffle(len(m.seqs[c]), func(i, j int) {
					m.seqs[c][i], m.seqs[c][j] = m.seqs[c][j], m.seqs[c][i]
				})
			}
		}
		m.st.active = m.active
		m.fwd = make([]int32, nc)
		m.resolved = make([]bool, nc)
		copy(m.fwd, m.succ)
		for c := 0; c < nc; c++ {
			if !m.resolved[c] {
				ctx.Send(nw.idOf(int(m.fwd[c])), dblQuery{Cycle: int8(c)}, m.idBits)
			}
		}

	case p <= 2*T+3+2*K:
		q := p - (2*T + 3)
		if q&1 == 1 {
			// Respond with our status and current jump pointer as of the
			// start of this doubling step.
			for _, msg := range inbox {
				if qu, ok := msg.Payload.(dblQuery); ok {
					ctx.Send(msg.From, dblResp{
						Cycle:     qu.Cycle,
						Active:    m.active[qu.Cycle],
						Fwd:       m.fwd[qu.Cycle],
						FwdActive: m.resolved[qu.Cycle],
					}, 2*m.idBits)
				}
			}
		} else {
			// Fold this step's responses into the jump pointers.
			for _, msg := range inbox {
				if resp, ok := msg.Payload.(dblResp); ok {
					c := resp.Cycle
					if m.resolved[c] {
						continue
					}
					if resp.Active {
						m.resolved[c] = true // fwd[c] already points at the responder
					} else {
						m.fwd[c] = resp.Fwd
						m.resolved[c] = resp.FwdActive
					}
				}
			}
			if q < 2*K {
				// Issue the next doubling step's queries.
				for c := 0; c < nc; c++ {
					if !m.resolved[c] {
						ctx.Send(nw.idOf(int(m.fwd[c])), dblQuery{Cycle: int8(c)}, m.idBits)
					}
				}
			} else {
				// Doubling done: active nodes send their last sequence
				// element to their nearest active successor.
				for c := 0; c < nc; c++ {
					if m.active[c] {
						if !m.resolved[c] {
							m.st.fails[FailDoubling]++
							continue
						}
						ctx.Send(nw.idOf(int(m.fwd[c])),
							boundMsg{Cycle: int8(c), Last: m.seqs[c][len(m.seqs[c])-1]}, m.idBits)
					}
				}
			}
		}

	case p == 2*T+4+2*K:
		// Receive the boundary element from the nearest active
		// predecessor; reply with our first element.
		m.u0 = make([]int32, nc)
		m.uLast = make([]int32, nc)
		m.haveU0 = make([]bool, nc)
		m.haveLast = make([]bool, nc)
		for _, msg := range inbox {
			if b, ok := msg.Payload.(boundMsg); ok {
				c := b.Cycle
				if m.haveU0[c] || !m.active[c] {
					// Two active predecessors, or a boundary sent to an
					// inactive node (a late doubling response under
					// latency spread): a doubling failure, no reply.
					m.st.fails[FailBound]++
					continue
				}
				m.u0[c] = b.Last
				m.haveU0[c] = true
				ctx.Send(msg.From, boundReply{Cycle: c, First: m.seqs[c][0]}, m.idBits)
			}
		}

	case p == 2*T+5+2*K:
		// Collect replies; send the Phase 4 assignments.
		for _, msg := range inbox {
			if br, ok := msg.Payload.(boundReply); ok {
				m.uLast[br.Cycle] = br.First
				m.haveLast[br.Cycle] = true
			}
		}
		for c := 0; c < nc; c++ {
			if !m.active[c] {
				continue
			}
			seq := m.seqs[c]
			mLen := len(seq)
			if !m.haveU0[c] {
				m.st.fails[FailBound]++
				m.u0[c] = seq[mLen-1]
			}
			if !m.haveLast[c] {
				m.st.fails[FailBound]++
				m.uLast[c] = seq[0]
			}
			for i := 0; i < mLen; i++ {
				p0 := m.u0[c]
				if i > 0 {
					p0 = seq[i-1]
				}
				s0 := m.uLast[c]
				if i < mLen-1 {
					s0 = seq[i+1]
				}
				ctx.Send(nw.idOf(int(seq[i])), assignMsg{Cycle: int8(c), Pred: p0, Succ: s0}, 2*m.idBits)
			}
		}

	case p == R:
		// Receive the new neighbors and commit the result to the
		// driver's slot; the next OnRound is round 1 of the next epoch.
		m.newSucc = make([]int32, nc)
		m.newPred = make([]int32, nc)
		for _, msg := range inbox {
			if a, ok := msg.Payload.(assignMsg); ok {
				m.newSucc[a.Cycle] = a.Succ
				m.newPred[a.Cycle] = a.Pred
				m.st.assigned++
			}
		}
		if !m.leaving && m.st.assigned != nc {
			m.st.fails[FailAssign]++
		}
		m.st.succ, m.st.pred = m.newSucc, m.newPred
		if m.leaving {
			return false
		}
		m.succ, m.pred = m.newSucc, m.newPred
		m.p = 0
	}
	return true
}

// joinerRound is a joiner's first epoch: announce at p = 1, collect
// assignments until the epoch's final round, then become a member.
func (m *coreNode) joinerRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	nw := m.nw
	if m.p == 1 {
		ctx.Send(nw.idOf(m.sponsor), helloMsg{ID: int32(m.id)}, m.idBits)
		nc := nw.cfg.D / 2
		m.succ = make([]int32, nc)
		m.pred = make([]int32, nc)
		m.st.assigned = 0
		return true
	}
	for _, msg := range inbox {
		if a, ok := msg.Payload.(assignMsg); ok {
			m.succ[a.Cycle] = a.Succ
			m.pred[a.Cycle] = a.Pred
			m.st.assigned++
		}
	}
	if m.p < m.R {
		return true
	}
	nc := nw.cfg.D / 2
	if m.st.assigned != nc {
		m.st.fails[FailAssign]++
	}
	m.st.succ, m.st.pred = m.succ, m.pred
	m.st.active = make([]bool, nc)
	m.st.placed = make([]int, nc)
	m.joining = false
	m.p = 0
	return true
}
