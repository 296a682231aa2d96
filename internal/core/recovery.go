package core

import (
	"fmt"
	"maps"
	"slices"
)

// This file is the §4 network's self-healing surface: deterministic
// live-state corruption (fault.Corrupter) and a repair protocol that
// splices damaged Hamilton cycles by pushing the suspect nodes back
// through the §4 join protocol.

// Round returns the underlying simulator's current round count, so
// recovery drivers can align partition windows and audit timestamps
// with the kernel's clock.
func (nw *Network) Round() int { return nw.net.Round() }

// CorruptState implements fault.Corrupter: it scrambles one member's
// live successor pointer in one Hamilton cycle, redirecting it at a
// hash-selected wrong member. The write goes through the shared backing
// array the node goroutine's local slice aliases (adopted at the last
// commit), so the corruption reaches the live protocol state, not just
// the driver's bookkeeping. Must be
// called between epochs, when every node goroutine is parked at the
// round barrier.
func (nw *Network) CorruptState(pick uint64) string {
	n := len(nw.members)
	nc := nw.cfg.D / 2
	if n < 3 || nc == 0 {
		return ""
	}
	victim := nw.members[int(pick%uint64(n))]
	c := int((pick >> 32) % uint64(nc))
	succ := nw.curSucc[victim]
	if c >= len(succ) {
		return ""
	}
	ti := int((pick >> 16) % uint64(n))
	for int32(nw.members[ti]) == succ[c] {
		ti = (ti + 1) % n
	}
	target := nw.members[ti]
	old := succ[c]
	succ[c] = int32(target)
	return fmt.Sprintf("member %d cycle %d successor %d -> %d", victim, c, old, target)
}

// link is the pairwise half of the §2.2/§4 rule, read by the cycle walk
// (cycleOrder, and through it ValidateTopology), the repair's suspect
// scan (suspectMembers) and the stats (BuildGraph, maxEmptySegment): w
// is member v's successor in cycle c when that is a member other than
// v, else −1, and ok reports whether w's predecessor points back at v.
// The curSucc and curPred keys are the member set.
func (nw *Network) link(v, c int) (w int, ok bool) {
	succ := nw.curSucc[v]
	if c >= len(succ) {
		return -1, false
	}
	w = int(succ[c])
	pred, member := nw.curPred[w]
	if !member || w == v {
		return -1, false
	}
	return w, c < len(pred) && int(pred[c]) == v
}

// suspectMembers returns, sorted, the members the §2.2/§4 rule
// (ValidateTopology) implicates: both ends of every broken link, and
// when no link is broken (split cycles), everyone a cycle's walk from
// members[0] cannot reach. For n ≥ 3 the result is empty exactly when
// ValidateTopology is nil.
func (nw *Network) suspectMembers() []int {
	nc := nw.cfg.D / 2
	suspect := make(map[int]bool)
	for _, v := range nw.members {
		for c := 0; c < nc; c++ {
			if w, ok := nw.link(v, c); !ok {
				suspect[v] = true
				if w >= 0 {
					suspect[w] = true
				}
			}
		}
	}
	for c := 0; c < nc && len(suspect) == 0; c++ {
		order, reached, _ := nw.cycleOrder(c)
		for _, id := range order[reached:] {
			suspect[id] = true
		}
	}
	return slices.Sorted(maps.Keys(suspect))
}

// cycleOrder walks cycle c from members[0] along every link whose
// successor is another member, cut at the first dead reference or
// early revisit: order is the walk followed by the unreached members in
// member order, reached is the walk's length, and broken is the first
// member on the walk whose link does not hold (−1 if none). When every
// link holds, order[reached:] are the members a split cycle strands.
func (nw *Network) cycleOrder(c int) (order []int, reached, broken int) {
	n := len(nw.members)
	visited := make(map[int]bool, n)
	order = make([]int, 0, n)
	broken = -1
	for v := nw.members[0]; v >= 0 && !visited[v]; {
		visited[v] = true
		order = append(order, v)
		w, ok := nw.link(v, c)
		if !ok && broken < 0 {
			broken = v
		}
		v = w
	}
	reached = len(order)
	for _, id := range nw.members {
		if reached < n && !visited[id] {
			order = append(order, id)
		}
	}
	return order, reached, broken
}

// quarantineCycles restores every Hamilton cycle to a legal successor
// permutation before the splice epoch runs: each cycle's successor and
// predecessor arrays are rewritten in place along its cycleOrder. The
// writes go through the shared backing arrays the parked node
// goroutines alias, so the protocol resumes with the quarantined pointers — the driver-level
// analogue of a node dropping links it has detected as inconsistent
// before re-running the join protocol. Returns the number of pointers
// rewritten (0 when every cycle was already legal).
func (nw *Network) quarantineCycles() int {
	n := len(nw.members)
	nc := nw.cfg.D / 2
	if n == 0 || nc == 0 {
		return 0
	}
	fixed := 0
	for c := 0; c < nc; c++ {
		order, _, _ := nw.cycleOrder(c)
		for i, id := range order {
			w := order[(i+1)%n]
			if succ := nw.curSucc[id]; c < len(succ) && int(succ[c]) != w {
				succ[c] = int32(w)
				fixed++
			}
			if pred := nw.curPred[w]; c < len(pred) && int(pred[c]) != id {
				pred[c] = int32(id)
				fixed++
			}
		}
	}
	return fixed
}

// Repair runs one repair epoch: the damaged cycles are first
// quarantined back to a legal permutation (without that step the leave
// splice itself runs over corrupt pointers and spreads the damage), and
// then every suspect departs and an equal number of fresh nodes join
// through the §4 join protocol — the Hamilton-cycle splice the join
// protocol performs is the repair primitive that rebuilds the suspects'
// volatile state from scratch. The staying members sponsor them
// round-robin, in member order, so none hosts more than ⌈s/(n−s)⌉ of the
// s joiners, and the epoch's sampling budget, sized for the busiest
// sponsor, grows with that share rather than with s. With no suspects it
// runs a plain reconfiguration epoch (full topology resample), which
// clears residual damage the pointer scan cannot attribute. Returns the epoch report and how many suspects were
// evicted; callers loop until their audit engine reports clean.
func (nw *Network) Repair() (EpochReport, int) {
	suspects := nw.suspectMembers() // before quarantine erases the evidence
	nw.quarantineCycles()
	n := len(nw.members)
	if len(suspects) > n-3 {
		// Keep at least three staying members: the epoch needs a sponsor
		// and a non-degenerate cycle to splice into.
		suspects = suspects[:n-3]
	}
	if len(suspects) == 0 {
		rep, _ := nw.RunEpoch(nil, nil)
		return rep, 0
	}
	isSuspect := make(map[int]bool, len(suspects))
	for _, id := range suspects {
		isSuspect[id] = true
	}
	var staying []int
	for _, id := range nw.members {
		if !isSuspect[id] {
			staying = append(staying, id)
		}
	}
	joins := make([]JoinSpec, len(suspects))
	for i := range joins {
		joins[i] = JoinSpec{Sponsor: staying[i%len(staying)]}
	}
	rep, _ := nw.RunEpoch(joins, suspects)
	return rep, len(suspects)
}
