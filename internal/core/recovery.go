package core

import "fmt"

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
// hash-selected wrong member. The write goes to the adopted topology
// block, which the member's node reads at the start of the next epoch,
// so the corruption reaches the live protocol state, not just the
// driver's bookkeeping. Must be called between epochs.
func (nw *Network) CorruptState(pick uint64) string {
	n := len(nw.members)
	nc := nw.cfg.D / 2
	if n < 3 || nc == 0 {
		return ""
	}
	vi := int(pick % uint64(n))
	c := int((pick >> 32) % uint64(nc))
	succ, _ := nw.rows(vi)
	ti := int((pick >> 16) % uint64(n))
	for int32(nw.members[ti]) == succ[c] {
		ti = (ti + 1) % n
	}
	target := nw.members[ti]
	old := succ[c]
	succ[c] = int32(target)
	return fmt.Sprintf("member %d cycle %d successor %d -> %d", nw.members[vi], c, old, target)
}

// link is the pairwise half of the §2.2/§4 rule, read by the cycle walk
// (cycleOrder, and through it ValidateTopology), the repair's suspect
// scan (suspectMembers) and the stats (BuildGraph, connected,
// maxEmptySegment), on member indices: j is member i's successor in
// cycle c when that is a member other than i, else −1, and ok reports
// whether j's predecessor points back at i.
func (nw *Network) link(i, c int) (j int, ok bool) {
	succ, _ := nw.rows(i)
	if j = nw.indexOf(int(succ[c])); j < 0 || j == i {
		return -1, false
	}
	_, pred := nw.rows(j)
	return j, int(pred[c]) == nw.members[i]
}

// bitset is a set of member indices.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) add(i int)      { b[i/64] |= 1 << (i % 64) }

// suspectMembers returns, sorted, the members the §2.2/§4 rule
// (ValidateTopology) implicates: both ends of every broken link, and
// when no link is broken (split cycles), everyone a cycle's walk from
// members[0] cannot reach. For n ≥ 3 the result is empty exactly when
// ValidateTopology is nil.
func (nw *Network) suspectMembers() []int {
	n, nc := len(nw.members), nw.cfg.D/2
	suspect, found := newBitset(n), false
	for i := range n {
		for c := 0; c < nc; c++ {
			if j, ok := nw.link(i, c); !ok {
				suspect.add(i)
				if j >= 0 {
					suspect.add(j)
				}
				found = true
			}
		}
	}
	for c := 0; c < nc && !found; c++ {
		order, reached, _ := nw.cycleOrder(c)
		for _, i := range order[reached:] {
			suspect.add(i)
			found = true
		}
	}
	var out []int
	for i, id := range nw.members {
		if suspect.has(i) {
			out = append(out, id)
		}
	}
	return out
}

// cycleOrder walks cycle c from member 0 along every link whose
// successor is another member, cut at the first dead reference or
// early revisit: order is the walk followed by the unreached members in
// member order, as member indices, reached is the walk's length, and
// broken is the first member on the walk whose link does not hold (−1
// if none). When every link holds, order[reached:] are the members a
// split cycle strands.
func (nw *Network) cycleOrder(c int) (order []int, reached, broken int) {
	n := len(nw.members)
	visited := newBitset(n)
	order = make([]int, 0, n)
	broken = -1
	for i := 0; i >= 0 && !visited.has(i); {
		visited.add(i)
		order = append(order, i)
		j, ok := nw.link(i, c)
		if !ok && broken < 0 {
			broken = i
		}
		i = j
	}
	reached = len(order)
	for i := 0; i < n && len(order) < n; i++ {
		if !visited.has(i) {
			order = append(order, i)
		}
	}
	return order, reached, broken
}

// quarantineCycles restores every Hamilton cycle to a legal successor
// permutation before the splice epoch runs: each cycle's successor and
// predecessor rows are rewritten in place along its cycleOrder. The
// writes go to the adopted topology block the nodes read, so the
// protocol resumes with the quarantined pointers — the driver-level
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
		for k, i := range order {
			j := order[(k+1)%n]
			if succ, _ := nw.rows(i); int(succ[c]) != nw.members[j] {
				succ[c] = int32(nw.members[j])
				fixed++
			}
			if _, pred := nw.rows(j); int(pred[c]) != nw.members[i] {
				pred[c] = int32(nw.members[i])
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
