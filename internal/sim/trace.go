package sim

// DropReason classifies why a message was not delivered.
type DropReason uint8

const (
	// DropDeadReceiver: the receiver id does not (or no longer) exist.
	DropDeadReceiver DropReason = iota
	// DropFaultInjected: an attached Injector (see inject.go) decided to
	// drop the message in transit. The message counted as sent and would
	// have been delivered.
	DropFaultInjected
	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons
)

var dropReasonNames = [NumDropReasons]string{
	"dead-receiver",
	"fault-injected",
}

func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return "unknown"
}

// RoundStats summarizes one completed round for a Tracer: the work
// triple the network always computes, plus how many messages were
// delivered. The per-node samples behind it reach Tracer.RoundSamples.
type RoundStats struct {
	Round int
	Alive int // nodes alive at the start of the round
	Work  RoundWork
	// Delivered is the number of messages handed to nodes in this
	// round's receive step (the sum of the round's inbox samples).
	// audit.WorkAuditor reconciles it against the previous round's
	// Messages and drop events.
	Delivered int64
}

// Tracer receives simulator lifecycle events. Implementations must be
// cheap: every hook is called synchronously from the network's driver
// goroutine between (or during) rounds. A nil tracer is the fast path —
// with no tracer attached the round loop performs no tracing work at
// all and keeps its zero-allocation steady state.
//
// Drop accounting reconciles with the work log as follows: for every
// round, Work.Messages equals the number of messages delivered into
// inboxes plus that round's MessageDropped calls (DropDeadReceiver and
// DropFaultInjected), minus the extra copies reported via
// MessageDuplicated (each adds copies-1 inbox entries beyond the single
// counted send). Messages addressed to a node that departs before they
// arrive are absorbed without a drop event.
//
// Within a round the hooks fire in this order: RoundStart,
// MessageDropped, MessageDuplicated, RoundDeferred, RoundReliability,
// RoundSamples, RoundEnd.
type Tracer interface {
	// RoundStart fires after the round counter is advanced, before
	// delivery: alive is the number of participating nodes.
	RoundStart(round, alive int)
	// RoundEnd fires after the send step with the round's statistics.
	RoundEnd(stats RoundStats)
	// NodeSpawned fires when a node is added (round = completed rounds
	// at spawn time; the node first participates in round+1).
	NodeSpawned(round int, id NodeID)
	// MessageDropped fires for every undelivered message with the round
	// in which the drop happened.
	MessageDropped(round int, reason DropReason, from, to NodeID, bits int)
	// MessageDuplicated fires for every message an Injector delivered
	// more than once, after the round's drops: copies is the total
	// number delivered, so copies-1 extra messages entered the
	// receiver's inbox beyond the one counted in RoundWork.Messages.
	MessageDuplicated(round int, from, to NodeID, bits, copies int)
	// RoundDeferred reports how many of the round's delivered sends drew
	// a latency beyond the next round and so missed the synchronous
	// deadline (Config.Latency enabled). It never fires on a zero count,
	// so a zero-spread async run emits exactly the synchronous run's
	// call sequence; the count is a pure function of the seed.
	RoundDeferred(round, deferred int)
	// RoundReliability reports the reliable-delivery layer's round:
	// acks and retransmit copies sent, delivery failures and stale
	// discards reported, control-lane traffic and the ack-delay
	// histogram. It never fires on an empty round, so a run without a
	// reliable layer emits exactly the legacy call sequence.
	RoundReliability(round int, stats ReliabilityRoundStats)
	// RoundSamples hands over the round's raw per-node samples across
	// alive nodes, in spawn order: delivered inbox sizes and sent+
	// received bits. The slices are the network's scratch buffers,
	// valid only for the duration of the call.
	RoundSamples(round int, inbox, bits []int64)
}

// SetTracer attaches (or, with nil, detaches) a Tracer. Like the other
// network methods it must be called from the driver goroutine between
// rounds.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// traceRoundStart emits the round-start event and resets the
// distribution scratch buffers for the round.
func (n *Network) traceRoundStart() {
	n.tracer.RoundStart(n.round, len(n.order))
	n.traceInbox = n.traceInbox[:0]
	n.traceBits = n.traceBits[:0]
}

// traceRoundEnd hands the round's samples to the tracer and emits the
// round-end event.
func (n *Network) traceRoundEnd(alive, messages int, totalBits, maxBits int64) {
	stats := RoundStats{
		Round: n.round,
		Alive: alive,
		Work: RoundWork{
			Round:       n.round,
			Messages:    messages,
			TotalBits:   totalBits,
			MaxNodeBits: maxBits,
		},
	}
	for _, v := range n.traceInbox {
		stats.Delivered += v
	}
	n.tracer.RoundSamples(n.round, n.traceInbox, n.traceBits)
	n.tracer.RoundEnd(stats)
}
