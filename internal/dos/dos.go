// Package dos implements the DoS-attack model of Section 1.1: an
// r-bounded adversary blocks up to an r-fraction of the nodes each
// round, deciding only from topological information that is at least t
// rounds old (a "t-late" adversary). The Buffer enforces the lateness
// mechanically: the network publishes a topology snapshot every round,
// and adversaries are only ever handed the snapshot from ≥ t rounds ago.
// An adversary's Fraction is clamped to [0, 1] (NaN counts as 0): it
// never blocks more than all the nodes, nor fewer than none.
package dos

import (
	"math"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Snapshot is the topological information visible to the adversary: the
// assignment of nodes to supernode groups and the supernode adjacency.
// Message contents, node state, and message counts are NOT included,
// matching the paper's restriction. A snapshot is read-only: the
// networks publish one per round, and the snapshots of one committed
// state share their Groups and Adj, so a write would show in the other
// rounds' snapshots too.
type Snapshot struct {
	Round int
	// Groups[x] lists the node ids representing supernode x.
	Groups [][]sim.NodeID
	// Adj[x] lists the supernodes adjacent to supernode x.
	Adj [][]int32
}

// Buffer retains snapshots and serves the adversary the freshest one
// that is at least Lateness rounds old. Lateness 0 gives the adversary
// real-time topology (the negative-control regime in which no overlay
// of sublinear degree can survive). Rounds passed to View must not
// decrease: View drops the snapshots older than the one it serves, so
// a long run holds about Lateness of them, not one per round.
type Buffer struct {
	Lateness int
	history  []*Snapshot
}

// Publish records the topology as of the given round.
func (b *Buffer) Publish(s *Snapshot) { b.history = append(b.history, s) }

// View returns the freshest snapshot at least Lateness rounds older
// than round, or nil if none exists yet.
func (b *Buffer) View(round int) *Snapshot {
	for i := len(b.history) - 1; i >= 0; i-- {
		if b.history[i].Round <= round-b.Lateness {
			kept := copy(b.history, b.history[i:])
			clear(b.history[kept:]) // release the dropped snapshots
			b.history = b.history[:kept]
			return b.history[0]
		}
	}
	return nil
}

// Adversary selects the blocked set for a round. n is the current node
// count; the returned set must respect the adversary's budget. snap may
// be nil early on (before any sufficiently old snapshot exists), and
// SelectBlocked must not modify it: it may be shared with other rounds.
type Adversary interface {
	SelectBlocked(round, n int, snap *Snapshot) map[sim.NodeID]bool
}

// Random blocks a uniformly random Fraction of all node ids; it does
// not use the snapshot at all (the weakest adversary).
type Random struct {
	Fraction float64
	R        *rng.RNG
	// IDs enumerates the current node ids.
	IDs func() []sim.NodeID
}

// budget returns how many of n nodes a fraction may block: 0 for NaN or
// a fraction ≤ 0, n for one ≥ 1 (a saturated budget blocks everyone).
func budget(fraction float64, n int) int {
	switch {
	case math.IsNaN(fraction) || fraction <= 0:
		return 0
	case fraction >= 1:
		return n
	}
	return int(fraction * float64(n))
}

// SelectBlocked implements Adversary.
func (a *Random) SelectBlocked(round, n int, snap *Snapshot) map[sim.NodeID]bool {
	ids := a.IDs()
	k := budget(a.Fraction, len(ids))
	blocked := make(map[sim.NodeID]bool, k)
	perm := a.R.Perm(len(ids))
	for _, i := range perm[:k] {
		blocked[ids[i]] = true
	}
	return blocked
}

// GroupIsolate is the strongest group-level attack: it picks a victim
// supernode from the snapshot and blocks every member of every
// NEIGHBOR group, trying to cut the victim's group off; leftover budget
// blocks further whole groups. Against a 0-late buffer this provably
// disconnects the network; against the ≥ 2t-late buffer the memberships
// it sees are obsolete by the time the blocks land (Theorem 6).
type GroupIsolate struct {
	Fraction float64
	R        *rng.RNG
}

// SelectBlocked implements Adversary.
func (a *GroupIsolate) SelectBlocked(round, n int, snap *Snapshot) map[sim.NodeID]bool {
	if snap == nil || len(snap.Groups) == 0 {
		return map[sim.NodeID]bool{}
	}
	limit := budget(a.Fraction, n)
	blocked := make(map[sim.NodeID]bool, limit)
	victim := a.R.Intn(len(snap.Groups))
	spend := func(group int) {
		for _, id := range snap.Groups[group] {
			if len(blocked) >= limit {
				return
			}
			blocked[id] = true
		}
	}
	for _, y := range snap.Adj[victim] {
		spend(int(y))
	}
	// Spend the rest of the budget on further whole groups (skipping
	// the victim, whose members must stay observably cut off).
	for off := 1; off < len(snap.Groups) && len(blocked) < limit; off++ {
		g := (victim + off) % len(snap.Groups)
		spend(g)
	}
	return blocked
}

// WholeGroups blocks as many complete groups as the budget allows,
// chosen at random from the snapshot: a blunt mass attack. No
// experiment runs it; it is the test adversary of the dos, supernode
// and splitmerge tests.
type WholeGroups struct {
	Fraction float64
	R        *rng.RNG
}

// SelectBlocked implements Adversary.
func (a *WholeGroups) SelectBlocked(round, n int, snap *Snapshot) map[sim.NodeID]bool {
	if snap == nil || len(snap.Groups) == 0 {
		return map[sim.NodeID]bool{}
	}
	limit := budget(a.Fraction, n)
	blocked := make(map[sim.NodeID]bool, limit)
	perm := a.R.Perm(len(snap.Groups))
	for _, g := range perm {
		grp := snap.Groups[g]
		if len(blocked)+len(grp) > limit {
			continue
		}
		for _, id := range grp {
			blocked[id] = true
		}
	}
	return blocked
}

// HalfEachGroup blocks just under half of every group it can afford,
// the attack Lemma 17 is calibrated against: with fresh information it
// silences entire groups' majorities; with stale information the
// halves it picks are spread uniformly over the rebuilt groups.
type HalfEachGroup struct {
	Fraction float64
	R        *rng.RNG
}

// SelectBlocked implements Adversary.
func (a *HalfEachGroup) SelectBlocked(round, n int, snap *Snapshot) map[sim.NodeID]bool {
	if snap == nil || len(snap.Groups) == 0 {
		return map[sim.NodeID]bool{}
	}
	limit := budget(a.Fraction, n)
	blocked := make(map[sim.NodeID]bool, limit)
	perm := a.R.Perm(len(snap.Groups))
	for _, g := range perm {
		grp := snap.Groups[g]
		take := (len(grp) + 1) / 2
		if len(blocked)+take > limit {
			break
		}
		for i := 0; i < take; i++ {
			blocked[grp[i]] = true
		}
	}
	return blocked
}
