package sim

import (
	"slices"

	"overlaynet/internal/metrics"
)

// DropReason classifies why a message was not delivered. The paper's
// DoS rule (a message from v to w sent in round i arrives iff v is
// non-blocked in round i and w is non-blocked in rounds i and i+1)
// yields three blocking-related reasons; the fourth covers messages
// addressed to ids that have left the network.
type DropReason uint8

const (
	// DropBlockedSender: the sender was blocked in the send round, so
	// all of its sends were discarded.
	DropBlockedSender DropReason = iota
	// DropBlockedReceiverSendRound: the receiver was blocked in the
	// send round (round i of the paper's rule).
	DropBlockedReceiverSendRound
	// DropBlockedReceiverDeliveryRound: the receiver was blocked in the
	// delivery round (round i+1), so its pending inbox was discarded.
	DropBlockedReceiverDeliveryRound
	// DropDeadReceiver: the receiver id does not (or no longer) exist.
	DropDeadReceiver
	// DropFaultInjected: an attached Injector (see inject.go) decided to
	// drop the message in transit. Unlike the blocking-related reasons
	// this one is synthetic — the message counted as sent and would have
	// been delivered.
	DropFaultInjected
	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons
)

var dropReasonNames = [NumDropReasons]string{
	"blocked-sender",
	"blocked-receiver-send-round",
	"blocked-receiver-delivery-round",
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
// triple the network always computes, plus the per-node inbox-size and
// bits (sent+received) distributions that are only computed when a
// tracer is attached. Percentiles use the same nearest-rank rule as
// metrics.Summarize.
type RoundStats struct {
	Round   int
	Alive   int // nodes alive at the start of the round
	Blocked int // of those, blocked in this round
	Work    RoundWork
	// Delivered is the number of messages handed to nodes in this
	// round's receive step (the sum of the inbox sizes below).
	// audit.WorkAuditor reconciles it against the previous round's
	// Messages and drop events.
	Delivered int64
	// Delivered-inbox size distribution across alive nodes (blocked
	// nodes receive nothing and contribute 0).
	InboxP50, InboxP95, InboxMax int64
	// Per-node sent+received bits distribution.
	BitsP50, BitsP95, BitsMax int64
}

// Tracer receives simulator lifecycle events. Implementations must be
// cheap: every hook is called synchronously from the network's driver
// goroutine between (or during) rounds. A nil tracer is the fast path —
// with no tracer attached the round loop performs no tracing work at
// all and keeps its zero-allocation steady state.
//
// Drop accounting reconciles with the work log as follows: for every
// round, Work.Messages (sends by non-blocked senders) equals the number
// of messages delivered into inboxes plus the MessageDropped calls with
// reasons DropDeadReceiver, DropBlockedReceiverSendRound, and
// DropFaultInjected for that round, minus the extra copies reported via
// FaultObserver.MessageDuplicated (each adds copies-1 inbox entries
// beyond the single counted send). DropBlockedSender drops are *not*
// part of Work.Messages, and DropBlockedReceiverDeliveryRound drops
// were counted as Messages in the preceding round (their send round).
type Tracer interface {
	// RoundStart fires after the round counter is advanced, before
	// delivery: alive is the number of participating nodes, blocked how
	// many of them are DoS-blocked this round.
	RoundStart(round, alive, blocked int)
	// RoundEnd fires after the send step with the round's statistics.
	RoundEnd(stats RoundStats)
	// NodeSpawned fires when a node is added (round = completed rounds
	// at spawn time; the node first participates in round+1).
	NodeSpawned(round int, id NodeID)
	// NodeKilled fires when Kill marks a node for removal.
	NodeKilled(round int, id NodeID)
	// NodeBlocked fires once per blocked alive node per round, in spawn
	// order, right after RoundStart.
	NodeBlocked(round int, id NodeID)
	// MessageDropped fires for every undelivered message with the round
	// in which the drop happened.
	MessageDropped(round int, reason DropReason, from, to NodeID, bits int)
}

// LatencyObserver is an optional extension a Tracer can implement to
// receive the discrete-event scheduler's per-round deferral count: how
// many of the round's delivered sends drew a latency beyond the next
// round and so missed the synchronous deadline. It fires after the send
// step of any round with a nonzero count when Config.Latency is enabled
// (never on zero, so a zero-spread async run emits exactly the
// synchronous run's call sequence). The count is a pure function of
// the seed, so it is safe in byte-compared artifacts.
type LatencyObserver interface {
	RoundDeferred(round, deferred int)
}

// RoundSampler is an optional extension a Tracer can implement to
// receive the raw per-node samples of each round — the delivered inbox
// sizes and sent+received bits across alive nodes — before any
// aggregation. A streaming-metrics consumer (trace.Recorder with a
// metrics registry attached) feeds them into log-scale histograms in
// O(n) instead of the exact-sort percentile pass.
//
// ExactRoundStats reports whether the consumer still needs the exact
// sorted percentiles in RoundStats. When it returns false the network
// skips the O(n log n) sort entirely and leaves the percentile fields
// of RoundStats zero — the change that keeps an attached tracer usable
// at n=1M. The slices passed to RoundSamples are the network's scratch
// buffers, valid only for the duration of the call.
type RoundSampler interface {
	RoundSamples(round int, inbox, bits []int64)
	ExactRoundStats() bool
}

// ReliabilityObserver is an optional extension a Tracer can implement
// to receive the reliable-delivery layer's per-round activity: acks and
// retransmit copies sent, delivery failures and stale discards
// reported, control-lane traffic, and the ack-delay histogram. Like
// RoundDeferred it fires at most once per round and never on an empty
// round, so a run without a reliable layer — or a reliable run on a
// perfect network, where the layer is silent — emits exactly the
// legacy call sequence. The stats are sums of pure per-message
// functions of the seed, so they are safe in byte-compared artifacts.
type ReliabilityObserver interface {
	RoundReliability(round int, stats ReliabilityRoundStats)
}

// SetTracer attaches (or, with nil, detaches) a Tracer. Like the other
// network methods it must be called from the driver goroutine between
// rounds.
func (n *Network) SetTracer(t Tracer) {
	n.tracer = t
	n.faultObs, _ = t.(FaultObserver)
	n.sampleObs, _ = t.(RoundSampler)
	n.latObs, _ = t.(LatencyObserver)
	n.relObs, _ = t.(ReliabilityObserver)
}

// traceRoundStart counts blocked members in spawn order, emits the
// round-start and per-node block events, and resets the distribution
// scratch buffers for the round.
func (n *Network) traceRoundStart() int {
	nblocked := 0
	if n.blockedAny {
		for _, s := range n.order {
			if n.blocked.Test(s) {
				nblocked++
			}
		}
	}
	n.tracer.RoundStart(n.round, len(n.order), nblocked)
	if nblocked > 0 {
		for _, s := range n.order {
			if n.blocked.Test(s) {
				n.tracer.NodeBlocked(n.round, n.slots[s].id)
			}
		}
	}
	n.traceInbox = n.traceInbox[:0]
	n.traceBits = n.traceBits[:0]
	return nblocked
}

// traceRoundEnd computes the inbox and bits distributions from the
// scratch samples Step collected and emits the round-end event.
func (n *Network) traceRoundEnd(alive, nblocked, messages int, totalBits, maxBits int64) {
	stats := RoundStats{
		Round:   n.round,
		Alive:   alive,
		Blocked: nblocked,
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
	// Hand the raw samples to a streaming consumer before sorting
	// scrambles their per-node order.
	exact := true
	if n.sampleObs != nil {
		n.sampleObs.RoundSamples(n.round, n.traceInbox, n.traceBits)
		exact = n.sampleObs.ExactRoundStats()
	}
	if exact {
		if len(n.traceInbox) > 0 {
			slices.Sort(n.traceInbox)
			stats.InboxP50 = metrics.PercentileSortedInt64(n.traceInbox, 0.50)
			stats.InboxP95 = metrics.PercentileSortedInt64(n.traceInbox, 0.95)
			stats.InboxMax = n.traceInbox[len(n.traceInbox)-1]
		}
		if len(n.traceBits) > 0 {
			slices.Sort(n.traceBits)
			stats.BitsP50 = metrics.PercentileSortedInt64(n.traceBits, 0.50)
			stats.BitsP95 = metrics.PercentileSortedInt64(n.traceBits, 0.95)
			stats.BitsMax = n.traceBits[len(n.traceBits)-1]
		}
	}
	n.tracer.RoundEnd(stats)
}
