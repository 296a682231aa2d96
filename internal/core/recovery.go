package core

import (
	"fmt"
	"sort"
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

// suspectMembers returns the members implicated in the current
// topology damage, sorted: first by the pairwise invariant (successor
// must be a live member other than yourself, and its predecessor
// pointer must point back), then — when the pointers are pairwise
// consistent but validateTopology still fails (split cycles) — by
// suspecting everyone each cycle's walk (cycleOrder) cannot reach. An
// empty result means the topology is valid.
func (nw *Network) suspectMembers() []int {
	nc := nw.cfg.D / 2
	n := len(nw.members)
	suspect := make(map[int]bool)
	isMember := make(map[int]bool, n)
	for _, id := range nw.members {
		isMember[id] = true
	}
	for _, v := range nw.members {
		succ := nw.curSucc[v]
		for c := 0; c < nc; c++ {
			if c >= len(succ) {
				suspect[v] = true
				continue
			}
			w := int(succ[c])
			if !isMember[w] || w == v {
				suspect[v] = true
				continue
			}
			predW := nw.curPred[w]
			if c >= len(predW) || int(predW[c]) != v {
				suspect[v] = true
				suspect[w] = true
			}
		}
	}
	if len(suspect) == 0 && nw.validateTopology() != nil {
		for c := 0; c < nc; c++ {
			order, reached := nw.cycleOrder(c, isMember)
			for _, id := range order[reached:] {
				suspect[id] = true
			}
		}
	}
	out := make([]int, 0, len(suspect))
	for id := range suspect {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// cycleOrder walks cycle c from members[0] keeping every live link,
// cut at the first self-loop, dead reference or early revisit: order is
// the walk followed by the unreached members in member order, and
// reached is the walk's length. When every pointer is pairwise
// consistent, order[reached:] are the members a split cycle strands.
func (nw *Network) cycleOrder(c int, isMember map[int]bool) (order []int, reached int) {
	visited := make(map[int]bool, len(nw.members))
	order = make([]int, 0, len(nw.members))
	for v := nw.members[0]; !visited[v]; {
		visited[v] = true
		order = append(order, v)
		succ := nw.curSucc[v]
		if c >= len(succ) {
			break
		}
		w := int(succ[c])
		if w == v || !isMember[w] {
			break
		}
		v = w
	}
	reached = len(order)
	for _, id := range nw.members {
		if !visited[id] {
			order = append(order, id)
		}
	}
	return order, reached
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
	isMember := make(map[int]bool, n)
	for _, id := range nw.members {
		isMember[id] = true
	}
	fixed := 0
	for c := 0; c < nc; c++ {
		order, _ := nw.cycleOrder(c, isMember)
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
// through the §4 join protocol, sponsored by the first non-suspect
// member — the Hamilton-cycle splice the join protocol performs is the
// repair primitive that rebuilds the suspects' volatile state from
// scratch. With no suspects it runs a plain reconfiguration epoch (full
// topology resample), which clears residual damage the pointer scan
// cannot attribute. Returns the epoch report and how many suspects were
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
	sponsor := -1
	for _, id := range nw.members {
		if !isSuspect[id] {
			sponsor = id
			break
		}
	}
	joins := make([]JoinSpec, len(suspects))
	for i := range joins {
		joins[i] = JoinSpec{Sponsor: sponsor}
	}
	rep, _ := nw.RunEpoch(joins, suspects)
	return rep, len(suspects)
}
