// Package anon implements the robust anonymous routing system of
// Section 7.1: the servers form the DoS-resistant hypercube network of
// Section 5, every server v is given a destination group D(v) = R(x)
// for a uniformly chosen supernode x, and a user's request is relayed
// entry server → D(v) → destination user, with the reply flowing back
// through D(v). Because group membership is resampled every
// Θ(log log n) rounds, the exit server is uniform with respect to the
// attacker's knowledge, and delivery survives a (1/2−ε)-bounded
// Ω(log log n)-late DoS attack (Corollary 2).
package anon

import (
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
)

// System is the anonymizing relay service.
type System struct {
	Net *supernode.Network
	r   *rng.RNG
	// dest[v] is server v's destination supernode x with D(v) = R(x).
	dest []int32
}

// NewSystem wraps a supernode network; destination groups are sampled
// immediately.
func NewSystem(net *supernode.Network, seed uint64) *System {
	sy := &System{Net: net, r: rng.New(seed), dest: make([]int32, netSize(net))}
	sy.ResampleDestinations()
	return sy
}

func netSize(net *supernode.Network) int {
	n := 0
	for _, g := range net.Groups() {
		n += len(g)
	}
	return n
}

// ResampleDestinations draws a fresh uniform destination supernode for
// every server; call it after each reconfiguration epoch, as the paper
// prescribes ("for each server v, a specific supernode x that v belongs
// to is picked" from the Θ(log n) random supernodes sampled during
// reconfiguration).
func (sy *System) ResampleDestinations() {
	for v := range sy.dest {
		sy.dest[v] = int32(sy.r.Intn(sy.Net.NSuper()))
	}
}

// Result reports the outcome of one request/reply exchange.
type Result struct {
	// Delivered reports whether the request reached the destination
	// user; ReplyDelivered whether the reply made it back.
	Delivered, ReplyDelivered bool
	// Exit is the server that forwarded the request out of the system
	// (0 if undelivered); anonymity requires its distribution to be
	// uniform w.r.t. the attacker's knowledge.
	Exit sim.NodeID
	// DestGroup is the supernode whose group relayed the request.
	DestGroup int
	// Rounds is the number of communication rounds consumed (O(1)).
	Rounds int
}

// Request relays one request and its reply. entry is the non-blocked
// server the user contacts; blockedSeq[i] is the blocked set in hop
// round i (four hops: entry→D(v), D(v)→w, w→D(v), D(v)→v). Missing
// entries mean "nobody blocked".
func (sy *System) Request(entry sim.NodeID, blockedSeq []map[sim.NodeID]bool) Result {
	res := Result{Rounds: 4}
	blocked := func(hop int, id sim.NodeID) bool {
		if hop >= len(blockedSeq) || blockedSeq[hop] == nil {
			return false
		}
		return blockedSeq[hop][id]
	}
	if blocked(0, entry) {
		return res // the user must pick a non-blocked entry server
	}
	x := sy.dest[int(entry)-1]
	res.DestGroup = int(x)
	group := sy.Net.Groups()[x]
	// Hop 1: entry forwards to all of D(v); receivers must be
	// non-blocked in the send round and the receive round.
	var receivers []sim.NodeID
	for _, id := range group {
		if !blocked(0, id) && !blocked(1, id) {
			receivers = append(receivers, id)
		}
	}
	if len(receivers) == 0 {
		return res
	}
	// Hop 2: the non-blocked members forward to the destination user
	// (users are outside the attack); the exit server is whichever
	// member's copy arrives — uniform among the receivers.
	res.Exit = receivers[sy.r.Intn(len(receivers))]
	res.Delivered = true
	// Hop 3: the user replies to all non-blocked servers it received
	// the request from; hop 4: any of them that is still non-blocked
	// returns the reply to the user via the entry path.
	for _, id := range receivers {
		if !blocked(2, id) && !blocked(3, id) {
			res.ReplyDelivered = true
			break
		}
	}
	return res
}
