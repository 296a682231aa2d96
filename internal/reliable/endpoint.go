package reliable

import (
	"sort"

	"overlaynet/internal/sim"
)

// Envelope wraps one protocol message on the wire. The first
// transmission goes out on the protocol lane carrying the wrapped
// message's original bits — the sequencing header is accounted as free,
// like the kernel's own From/To/seq metadata — so a zero-spread
// reliable run reproduces the synchronous work tables bit for bit.
// Retransmissions send the same Envelope on the retransmit lane.
type Envelope struct {
	// Seq is the sender endpoint's sequence number, unique per sender
	// across all destinations; the receiver dedups on (sender, Seq).
	Seq uint64
	// Round is the sim round of the first transmission; the receiver
	// derives the protocol phase the message belongs to from it, and the
	// sender the ack delay.
	Round int
	// Payload is the wrapped protocol payload.
	Payload any
}

// Ack acknowledges receipt of the sender's envelope Seq. Acks ride the
// control lane: same blocking/fault/latency machinery, separate
// accounting, outside the work-conservation ledger.
type Ack struct {
	Seq uint64
}

// FailureHandler is optionally implemented by the wrapped protocol
// handler to hear about messages whose retransmit budget ran out — the
// graceful-degradation path: the protocol learns it lost a message
// instead of silently never receiving an answer.
type FailureHandler interface {
	OnDeliveryFailure(to sim.NodeID)
}

// pendingTx is one unacked envelope at the sender.
type pendingTx struct {
	to      sim.NodeID
	env     Envelope
	bits    int
	nextAt  int // sim round the next attempt (or the failure) fires; acked once the ack is in
	attempt int // retransmissions already sent (0 = only the original)
}

// acked marks a pendingTx whose ack has arrived; the retransmit scan
// drops it.
const acked = -1

// bufEntry is one unwrapped arrival awaiting the phase boundary,
// keyed for canonical delivery order.
type bufEntry struct {
	seq uint64 // envelope sequence (0 for pass-through traffic)
	msg sim.Message
}

// recvState is the per-sender dedup window at the receiver: every seq
// ≤ watermark has been processed, plus the out-of-order set above it.
type recvState struct {
	watermark uint64
	seen      map[uint64]struct{}
}

func (rs *recvState) has(seq uint64) bool {
	if seq <= rs.watermark {
		return true
	}
	_, ok := rs.seen[seq]
	return ok
}

func (rs *recvState) add(seq uint64) {
	if rs.seen == nil {
		rs.seen = make(map[uint64]struct{})
	}
	rs.seen[seq] = struct{}{}
	for {
		if _, ok := rs.seen[rs.watermark+1]; !ok {
			return
		}
		rs.watermark++
		delete(rs.seen, rs.watermark)
	}
}

// Endpoint is the reliable-delivery shim around one protocol handler.
// It intercepts the handler's sends (sim.Ctx send hook), envelopes them
// with sequence numbers, acks every arrival, retransmits unacked
// envelopes on the pure AttemptDelay schedule, and drives the inner
// handler one protocol round per Stretch sim rounds, feeding it the
// deduplicated, unwrapped messages that arrived during the phase.
//
// All Endpoint state is touched only from the node's own OnRound call,
// and the dedup maps are looked up by key, never iterated, so the shim
// adds no scheduling nondeterminism: for a fixed seed the full message
// history is identical at any -procs/-shards.
type Endpoint struct {
	inner   sim.Handler
	cfg     Config
	seed    uint64
	stretch int

	started bool
	seq     uint64
	pending []pendingTx
	buf     []bufEntry // unwrapped arrivals awaiting the phase boundary
	out     []sim.Message
	recv    map[sim.NodeID]*recvState
}

// Wrap layers reliable delivery around a protocol handler. stretch is
// the resolved phase stretch (Config.EffectiveStretch); every node of a
// network must be wrapped with the same value, since phase boundaries
// (sim round ≡ 0 mod stretch) are a network-global convention.
func Wrap(seed uint64, cfg Config, stretch int, inner sim.Handler) *Endpoint {
	if stretch < 1 {
		stretch = 1
	}
	return &Endpoint{inner: inner, cfg: cfg, seed: seed, stretch: stretch}
}

// Inner returns the wrapped handler.
func (e *Endpoint) Inner() sim.Handler { return e.inner }

// OnRound implements sim.Handler.
func (e *Endpoint) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	if !e.started {
		e.started = true
		e.recv = make(map[sim.NodeID]*recvState)
		ctx.SetSendHook(func(to sim.NodeID, payload any, bits int) {
			e.sendEnvelope(ctx, to, payload, bits)
		})
	}
	r := ctx.Round()

	// Ingest: acks clear pending entries; envelopes are acked, deduped,
	// phase-checked, and buffered for the next protocol round.
	for i := range inbox {
		m := &inbox[i]
		switch p := m.Payload.(type) {
		case Ack:
			e.ackPending(ctx, r, p.Seq)
		case Envelope:
			// An envelope sent in phase k is consumed by the protocol
			// round executing at sim round (k+1)·S; later arrivals are
			// stale — counted and discarded, and deliberately NOT acked:
			// the sender must keep retransmitting until its budget runs
			// out and then report the failure, so a too-late message
			// degrades into a *reported* loss, never a silent one.
			// (Retransmit copies carry the original Round, so once a
			// message is stale every future copy is too.)
			if deadline := (p.Round/e.stretch + 1) * e.stretch; r > deadline {
				ctx.ReportStaleDelivery()
				continue
			}
			// Ack in-window arrivals — duplicate copies too, so the
			// sender stops retransmitting even when its first ack was
			// lost in transit.
			ctx.SendAck(m.From, Ack{Seq: p.Seq}, AckBits)
			rs := e.recv[m.From]
			if rs == nil {
				rs = &recvState{}
				e.recv[m.From] = rs
			}
			if rs.has(p.Seq) {
				continue
			}
			rs.add(p.Seq)
			e.buf = append(e.buf, bufEntry{seq: p.Seq, msg: sim.Message{
				From: m.From, To: m.To, Payload: p.Payload, Bits: m.Bits,
			}})
		default:
			// Not reliable-layer traffic (possible only if an unwrapped
			// sender shares the network): deliver at the next boundary.
			e.buf = append(e.buf, bufEntry{msg: *m})
		}
	}

	// Retransmit scan, in send order: acked entries go, due entries
	// either fire their next attempt or exhaust the budget and report
	// failure.
	keep := e.pending[:0]
	for i := range e.pending {
		p := &e.pending[i]
		if p.nextAt == acked {
			continue
		}
		if r < p.nextAt {
			keep = append(keep, *p)
			continue
		}
		if p.attempt >= e.cfg.Budget {
			ctx.ReportDeliveryFailure()
			if fh, ok := e.inner.(FailureHandler); ok {
				fh.OnDeliveryFailure(p.to)
			}
			continue
		}
		p.attempt++
		ctx.SendRetransmit(p.to, p.env, p.bits)
		p.nextAt = r + AttemptDelay(e.cfg, e.seed, p.env.Round,
			uint64(ctx.ID()), uint64(p.to), p.attempt)
		keep = append(keep, *p)
	}
	clear(e.pending[len(keep):]) // release the dropped envelopes' payloads
	e.pending = keep

	// Phase boundary: run one protocol round on the buffered arrivals.
	if r%e.stretch == 0 {
		if e.stretch > 1 && len(e.buf) > 1 {
			// Stretched phases collect arrivals over several sim rounds in
			// latency-draw order. Re-canonicalize by (sender, seq) — the
			// pair is unique per envelope — so the inner protocol's
			// execution (including its RNG consumption, which follows
			// inbox order) depends only on WHICH messages survived the
			// phase, never on when their copies happened to arrive. At
			// stretch 1 the buffer already carries the kernel's
			// deterministic one-round order; keeping it untouched is what
			// makes the zero-spread run byte-identical to the legacy one.
			sort.Slice(e.buf, func(i, j int) bool {
				if e.buf[i].msg.From != e.buf[j].msg.From {
					return e.buf[i].msg.From < e.buf[j].msg.From
				}
				return e.buf[i].seq < e.buf[j].seq
			})
		}
		e.out = e.out[:0]
		for i := range e.buf {
			e.out = append(e.out, e.buf[i].msg)
		}
		e.buf = e.buf[:0]
		alive := e.inner.OnRound(ctx, e.out)
		return alive
	}
	return true
}

// sendEnvelope is the send hook: wrap, transmit on the protocol lane,
// and start the retransmit clock.
func (e *Endpoint) sendEnvelope(ctx *sim.Ctx, to sim.NodeID, payload any, bits int) {
	r := ctx.Round()
	e.seq++
	env := Envelope{Seq: e.seq, Round: r, Payload: payload}
	ctx.SendRaw(to, env, bits)
	e.pending = append(e.pending, pendingTx{
		to: to, env: env, bits: bits,
		nextAt: r + AttemptDelay(e.cfg, e.seed, r, uint64(ctx.ID()), uint64(to), 0),
	})
}

// ackPending marks the pending entry for seq acked and records the
// observed ack delay. pending is in ascending Seq order by construction
// (sendEnvelope appends, the retransmit scan keeps order), so the entry
// is found by binary search and removed by the scan's rewrite instead
// of a memmove per ack.
func (e *Endpoint) ackPending(ctx *sim.Ctx, r int, seq uint64) {
	i := sort.Search(len(e.pending), func(i int) bool { return e.pending[i].env.Seq >= seq })
	// Unknown or already marked: a duplicate ack, or one that arrived
	// after the budget ran out. Nothing to do.
	if i < len(e.pending) && e.pending[i].env.Seq == seq && e.pending[i].nextAt != acked {
		ctx.ObserveAckDelay(r - e.pending[i].env.Round)
		e.pending[i].nextAt = acked
	}
}
