package sim

// Injector is a deterministic fault-injection hook between the send and
// deliver halves of a round. When attached, the send step consults it
// once per otherwise-deliverable message (receiver alive); the return
// value is the number of copies to append to the receiver's inbox: 0
// drops the message in transit, 1 is normal delivery, c > 1 delivers c
// consecutive copies.
//
// Implementations MUST be pure functions of their arguments (and any
// fixed configuration such as a seed): the §5/§6 engine consults the
// same injector from its workers in no fixed order (fault.ComposeGate),
// and a decision must not depend on which messages were asked about
// before. Sequential RNG streams are therefore unusable here; hash the
// (round, from, to, seq) tuple instead (internal/fault does exactly
// that).
//
// A nil injector is the fast path: the send loop performs a single
// pointer check per message and otherwise runs the pre-fault code.
type Injector interface {
	Deliveries(round int, from, to NodeID, seq uint64) int
}

// SetInjector attaches (or, with nil, detaches) a fault Injector. Like
// the other network methods it must be called from the driver goroutine
// between rounds.
func (n *Network) SetInjector(inj Injector) { n.injector = inj }
