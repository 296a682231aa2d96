package reliable

import (
	"cmp"
	"math"
	"slices"

	"overlaynet/internal/sim"
)

// Envelope wraps one protocol message on the wire. The first
// transmission goes out on the protocol lane carrying the wrapped
// message's original bits — the sequencing header is accounted as free,
// like the kernel's own From/To/seq metadata — so a zero-spread
// reliable run reproduces the synchronous work tables bit for bit.
// Retransmissions send the same *Envelope on the retransmit lane: it is
// boxed once, shared by every copy and the sender's retransmit state,
// and read-only from the moment it is sent.
type Envelope struct {
	// Seq is the sender endpoint's sequence number (from 1), unique per
	// sender across all destinations; the receiver dedups on (sender, Seq).
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
// instead of silently never receiving an answer. Called from inside
// the retransmit scan: it must not send.
type FailureHandler interface {
	OnDeliveryFailure(to sim.NodeID)
}

// pendingTx is one unacked envelope at the sender.
type pendingTx struct {
	seq     uint64 // env.Seq, inline for the ack search
	env     *Envelope
	to      sim.NodeID
	nextAt  int   // sim round the next attempt (or the failure) fires; acked once the ack is in
	bits    int32 // accounted size of every copy
	attempt int32 // retransmissions already sent (0 = only the original)
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

// Endpoint is the reliable-delivery shim around one protocol handler.
// It intercepts the handler's sends (sim.Ctx send hook), envelopes them
// with sequence numbers, acks every in-window arrival, retransmits
// unacked envelopes on the pure AttemptDelay schedule, and drives the
// inner handler one protocol round per Stretch sim rounds, feeding it
// the deduplicated, unwrapped messages that arrived during the phase.
//
// Receiver state is phase-scoped: the stale rule admits an envelope
// only until the boundary after its send, so every admissible copy sits
// in the one phase buffer that boundary consumes; deduplication looks at
// nothing else, and nothing is remembered across a boundary.
//
// All Endpoint state is touched only from the node's own OnRound call
// and is ordered by message identity alone, so the shim adds no
// scheduling nondeterminism: for a fixed seed the full message history
// is identical at any -procs.
type Endpoint struct {
	inner   sim.Handler
	cfg     Config
	seed    uint64
	stretch int

	started bool
	seq     uint64
	pending []pendingTx // unacked envelopes, ascending Seq
	due     int         // no pending nextAt is earlier: the scan can wait until then
	buf     []bufEntry  // unwrapped arrivals awaiting the phase boundary
	out     []sim.Message
}

// Wrap layers reliable delivery around a protocol handler. stretch is
// the resolved phase stretch (Config.EffectiveStretch); every node of a
// network must be wrapped with the same value, since phase boundaries
// (sim round ≡ 0 mod stretch) are a network-global convention.
func Wrap(seed uint64, cfg Config, stretch int, inner sim.Handler) *Endpoint {
	return &Endpoint{inner: inner, cfg: cfg, seed: seed, stretch: max(stretch, 1)}
}

// Inner returns the wrapped handler.
func (e *Endpoint) Inner() sim.Handler { return e.inner }

// OnRound implements sim.Handler.
func (e *Endpoint) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	if !e.started {
		e.started = true
		ctx.SetSendHook(func(to sim.NodeID, payload any, bits int) {
			e.sendEnvelope(ctx, to, payload, bits)
		})
	}
	r := ctx.Round()

	// Ingest: acks clear pending entries; envelopes are phase-checked,
	// acked, and buffered for the next protocol round.
	for i := range inbox {
		m := &inbox[i]
		switch p := m.Payload.(type) {
		case Ack:
			e.ackPending(ctx, r, p.Seq)
		case *Envelope:
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
			e.buf = append(e.buf, bufEntry{seq: p.Seq, msg: sim.Message{
				From: m.From, To: m.To, Payload: p.Payload, Bits: m.Bits,
			}})
		default:
			// Not reliable-layer traffic (possible only if an unwrapped
			// sender shares the network): deliver at the next boundary.
			e.buf = append(e.buf, bufEntry{msg: *m})
		}
	}

	if r >= e.due {
		e.retransmit(ctx, r)
	}
	if r%e.stretch != 0 {
		return true
	}

	// Phase boundary: run one protocol round on the buffered arrivals.
	if e.stretch > 1 && len(e.buf) > 1 {
		// Stretched phases collect arrivals over several sim rounds in
		// latency-draw order. Re-canonicalize by (sender, seq) — the
		// pair names the envelope — so the inner protocol's execution
		// (including its RNG consumption, which follows inbox order)
		// depends only on WHICH messages survived the phase, never on
		// when their copies happened to arrive. At stretch 1 the buffer
		// already carries the kernel's deterministic one-round order;
		// keeping it untouched is what makes the zero-spread run
		// byte-identical to the legacy one.
		slices.SortStableFunc(e.buf, func(a, b bufEntry) int {
			if c := cmp.Compare(a.msg.From, b.msg.From); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	// Copies of one envelope are now side by side: the sort put them
	// there, and at stretch 1 the only in-window copies are the fault
	// injector's duplicates of the original transmission (retransmits
	// land at least two rounds later), which both kernel paths deliver
	// adjacent. Pass-through traffic (seq 0) is never deduplicated.
	out := e.out[:0]
	for i := range e.buf {
		b := &e.buf[i]
		if i > 0 && b.seq != 0 && b.seq == e.buf[i-1].seq && b.msg.From == e.buf[i-1].msg.From {
			continue
		}
		out = append(out, b.msg)
	}
	clear(e.buf) // neither buffer keeps a payload alive past its phase
	e.buf = e.buf[:0]
	alive := e.inner.OnRound(ctx, out)
	clear(out)
	e.out = out[:0]
	return alive
}

// retransmit is the scan over pending, in send order: acked entries go,
// due entries either fire their next attempt or exhaust the budget and
// report failure. Survivors are compacted in place.
func (e *Endpoint) retransmit(ctx *sim.Ctx, r int) {
	w, due := 0, math.MaxInt
	for i := range e.pending {
		p := &e.pending[i]
		if p.nextAt == acked {
			continue
		}
		if r >= p.nextAt {
			if int(p.attempt) >= e.cfg.Budget {
				ctx.ReportDeliveryFailure()
				if fh, ok := e.inner.(FailureHandler); ok {
					fh.OnDeliveryFailure(p.to)
				}
				continue
			}
			p.attempt++
			ctx.SendRetransmit(p.to, p.env, int(p.bits))
			p.nextAt = r + AttemptDelay(e.cfg, e.seed, p.env.Round,
				uint64(ctx.ID()), uint64(p.to), int(p.attempt))
		}
		due = min(due, p.nextAt)
		if w != i {
			e.pending[w] = *p
		}
		w++
	}
	clear(e.pending[w:]) // release the dropped envelopes
	e.pending = e.pending[:w]
	e.due = due
}

// sendEnvelope is the send hook: wrap, transmit on the protocol lane,
// and start the retransmit clock.
func (e *Endpoint) sendEnvelope(ctx *sim.Ctx, to sim.NodeID, payload any, bits int) {
	r := ctx.Round()
	e.seq++
	env := &Envelope{Seq: e.seq, Round: r, Payload: payload}
	ctx.SendRaw(to, env, bits)
	nextAt := r + AttemptDelay(e.cfg, e.seed, r, uint64(ctx.ID()), uint64(to), 0)
	e.pending = append(e.pending, pendingTx{seq: e.seq, env: env, to: to, nextAt: nextAt, bits: int32(bits)})
	e.due = min(e.due, nextAt)
}

// ackPending marks the pending entry for seq acked and records the
// observed ack delay. pending is in ascending seq order by construction
// (sendEnvelope appends, the scan keeps order), so the entry is found by
// binary search and removed by the scan's rewrite, not a memmove per ack.
func (e *Endpoint) ackPending(ctx *sim.Ctx, r int, seq uint64) {
	lo, hi := 0, len(e.pending)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); e.pending[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// Unknown or already marked: a duplicate ack, or one that arrived
	// after the budget ran out. Nothing to do.
	if lo < len(e.pending) && e.pending[lo].seq == seq && e.pending[lo].nextAt != acked {
		ctx.ObserveAckDelay(r - e.pending[lo].env.Round)
		e.pending[lo].nextAt = acked
	}
}
