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

// RoundStats is one completed round as the kernel reports it: the work
// log's entry, what became of the round's protocol-lane sends, the
// reliable layer's activity, and the per-node samples behind them.
// Every field but Inbox and Bits is a pure function of the seed and the
// run.
type RoundStats struct {
	Round int
	Alive int // nodes alive at the start of the round
	// Work is the entry Network.Work appends for the round, control
	// lane included.
	Work RoundWork
	// Delivered is the number of protocol-lane messages handed to nodes
	// in this round's receive step (the sum of Inbox).
	Delivered int64
	// Dropped counts the round's undelivered protocol-lane sends by
	// reason; DupExtra counts the copies an Injector delivered beyond
	// the one each send counts as.
	Dropped  [NumDropReasons]int
	DupExtra int
	// Deferred counts the round's protocol-lane sends whose latency
	// (Config.Latency) put their arrival beyond the next round.
	Deferred int
	// The latency calendar's protocol-lane copies this round: moved into
	// it by the send step (the Deferred sends' copies), placed out of it
	// for delivery next round, and absorbed from it because their
	// receiver left after the send. All zero on the synchronous path.
	CalendarIn, CalendarOut, CalendarAbsorbed int
	// Reliability is the reliable layer's round: control-lane traffic,
	// reported failures and stale discards, and ack delays.
	Reliability ReliabilityRoundStats
	// Inbox and Bits sample every node alive at the round's start, in
	// spawn order: its delivered protocol-lane inbox size and its sent+
	// received protocol bits. They are the network's scratch buffers,
	// valid only during Tracer.RoundEnd.
	Inbox, Bits []int64
}

// Tracer observes the kernel round by round. Every hook is called
// synchronously on the goroutine driving the network, so
// implementations must be cheap. A nil tracer is the fast path: the
// round loop then does no tracing work and keeps its zero-allocation
// steady state.
//
// The ledger a tracer can reconcile: a round's Delivered equals the
// previous round's Work.Messages, minus its Dropped (both reasons),
// plus its DupExtra, minus its CalendarIn, plus its CalendarOut; in a
// synchronous run the calendar terms are zero. Messages already placed
// for a node that departs before its next round are absorbed without
// counting as a drop.
type Tracer interface {
	// RoundStart fires after the round counter is advanced, before
	// delivery: alive is the number of participating nodes.
	RoundStart(round, alive int)
	// RoundEnd fires once the round is complete (after the send step,
	// departures and the work-log append) with the round's facts.
	RoundEnd(stats RoundStats)
	// NodeSpawned fires when a node is added (round = completed rounds
	// at spawn time; the node first participates in round+1).
	NodeSpawned(round int, id NodeID)
}

// SetTracer attaches (or, with nil, detaches) a Tracer. Like the other
// network methods it must be called from the driver goroutine between
// rounds.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }
