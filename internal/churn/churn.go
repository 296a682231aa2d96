// Package churn implements the adversarial churn model of Section 1.1:
// an omniscient adversary prescribes, for each reconfiguration epoch,
// which nodes join and which leave. The adversary sees the full current
// state of the network (member list and topology), matching the paper's
// allowance that churn decisions "can be based on any information about
// the past or current state of the system".
package churn

import (
	"slices"

	"overlaynet/internal/core"
	"overlaynet/internal/rng"
)

// View is the omniscient information handed to the adversary before
// each epoch.
type View struct {
	Members []int // ascending, as core.Network.Members returns them
	// Neighbors returns the current neighbors of a member (with
	// multiplicity), exposing the full topology.
	Neighbors func(id int) []int
}

// Adversary prescribes the churn of one epoch.
type Adversary interface {
	// Plan returns the joins and leaves for the next epoch. Sponsors
	// must be staying members; leaves must be current members.
	Plan(v View) (joins []core.JoinSpec, leaves []int)
}

// Replace is the canonical constant-rate churn adversary: each epoch it
// removes a uniform Fraction of the members and admits the same number
// of new nodes through random staying sponsors, keeping n constant
// while turning the membership over completely every 1/Fraction epochs.
type Replace struct {
	Fraction float64
	R        *rng.RNG
}

// Plan implements Adversary.
func (a *Replace) Plan(v View) ([]core.JoinSpec, []int) {
	n := len(v.Members)
	k := int(a.Fraction * float64(n))
	if k > n-3 {
		k = n - 3
	}
	perm := a.R.Perm(n)
	leaves := make([]int, 0, k)
	leaving := make(map[int]bool, k)
	for _, i := range perm[:k] {
		leaves = append(leaves, v.Members[i])
		leaving[v.Members[i]] = true
	}
	joins := make([]core.JoinSpec, 0, k)
	for len(joins) < k {
		s := v.Members[a.R.Intn(n)]
		if !leaving[s] {
			joins = append(joins, core.JoinSpec{Sponsor: s})
		}
	}
	return joins, leaves
}

// TargetOldest removes the longest-lived members (the lowest ids) every
// epoch and replaces them — the classic attack on age-stratified
// multi-tier overlays, which the reconfigured expander shrugs off
// because placement is independent of age.
type TargetOldest struct {
	Fraction float64
	R        *rng.RNG
}

// Plan implements Adversary.
func (a *TargetOldest) Plan(v View) ([]core.JoinSpec, []int) {
	n := len(v.Members)
	k := int(a.Fraction * float64(n))
	if k > n-3 {
		k = n - 3
	}
	// Members are sorted ascending; the oldest are first.
	leaves := append([]int(nil), v.Members[:k]...)
	joins := make([]core.JoinSpec, k)
	for i := range joins {
		joins[i] = core.JoinSpec{Sponsor: v.Members[n-1-a.R.Intn(n-k)]}
	}
	return joins, leaves
}

// TargetNeighborhood is an omniscient topology-aware adversary: each
// epoch it picks a victim and removes the victim's entire current
// neighborhood (up to the budget), the strongest disconnection attempt
// available to a churn adversary. The paper's point (Theorem 5) is that
// even this fails: the victim is rewired before the departures bite.
// A victim tried once has nothing more to give, so once every member has
// been tried Plan stops with fewer leaves than its budget: after an
// epoch broken by latency no member may have a live, non-leaving
// neighbour left. The shortfall is the budget less len(leaves).
type TargetNeighborhood struct {
	Fraction float64
	R        *rng.RNG
}

// Plan implements Adversary.
func (a *TargetNeighborhood) Plan(v View) ([]core.JoinSpec, []int) {
	n := len(v.Members)
	budget := int(a.Fraction * float64(n))
	if budget > n-3 {
		budget = n - 3
	}
	leaving := make(map[int]bool)
	var leaves []int
	tried, untried := make([]bool, n), n
	// Keep attacking fresh victims until the budget is spent or no member
	// is left untried.
	for len(leaves) < budget && untried > 0 {
		i := a.R.Intn(n)
		if !tried[i] {
			tried[i] = true
			untried--
		}
		victim := v.Members[i]
		if leaving[victim] {
			continue
		}
		for _, w := range v.Neighbors(victim) {
			if len(leaves) >= budget {
				break
			}
			// After an epoch under message faults a recorded neighbour can be
			// an id that has left, or 0 for a pointer never set: skip those.
			if _, member := slices.BinarySearch(v.Members, w); member && w != victim && !leaving[w] {
				leaving[w] = true
				leaves = append(leaves, w)
			}
		}
	}
	joins := make([]core.JoinSpec, len(leaves))
	i := 0
	for i < len(joins) {
		s := v.Members[a.R.Intn(n)]
		if !leaving[s] {
			joins[i] = core.JoinSpec{Sponsor: s}
			i++
		}
	}
	return joins, leaves
}

// Run drives a core.Network under the adversary for the given number
// of epochs and returns the per-epoch reports.
func Run(nw *core.Network, adv Adversary, epochs int) []core.EpochReport {
	reports := make([]core.EpochReport, 0, epochs)
	for range epochs {
		view := View{
			Members: nw.Members(),
			Neighbors: func(id int) []int {
				return nw.NeighborsOf(id)
			},
		}
		joins, leaves := adv.Plan(view)
		rep, _ := nw.RunEpoch(joins, leaves)
		reports = append(reports, rep)
	}
	return reports
}
