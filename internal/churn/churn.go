// Package churn implements the adversarial churn model of Section 1.1:
// an omniscient adversary prescribes, for each reconfiguration epoch,
// which nodes join and which leave. The adversary sees the full current
// state of the network (member list and topology), matching the paper's
// allowance that churn decisions "can be based on any information about
// the past or current state of the system".
package churn

import (
	"fmt"
	"slices"

	"overlaynet/internal/core"
	"overlaynet/internal/rng"
)

// View is the omniscient information handed to the adversary before
// each epoch.
type View struct {
	Epoch   int
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
	// Keep attacking fresh victims until the budget is spent.
	for len(leaves) < budget {
		victim := v.Members[a.R.Intn(n)]
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

// RateChecker validates the adversary's churn-rate discipline: with
// rate r, consecutive prescribed node sets satisfy
// |W_i|/r ≤ |W_{i+1}| ≤ r·|W_i|.
type RateChecker struct {
	Rate  float64
	sizes []int
}

// Record adds the next node-set size and reports whether the rate bound
// still holds.
func (rc *RateChecker) Record(size int) error {
	if len(rc.sizes) > 0 {
		prev := float64(rc.sizes[len(rc.sizes)-1])
		s := float64(size)
		if s > rc.Rate*prev || s < prev/rc.Rate {
			return fmt.Errorf("churn: size %d violates rate %.2f after %d", size, rc.Rate, rc.sizes[len(rc.sizes)-1])
		}
	}
	rc.sizes = append(rc.sizes, size)
	return nil
}

// Sizes returns the recorded size history.
func (rc *RateChecker) Sizes() []int { return rc.sizes }

// WindowChecker validates the paper's delay-T containment requirement
// (§1.1): with prescribed node sets W_i and realized member sets V_i,
// every i must satisfy  ∩_{j=i−T..i} W_j ⊆ V_i ⊆ ∪_{j=i−T..i} W_j,
// and membership must be monotonic (each id enters and leaves V at
// most once). At our epoch granularity T = 1: the network adapts to
// each prescription within one reconfiguration.
type WindowChecker struct {
	T       int
	w       []map[int]bool
	present map[int]int // id -> 0 never seen, 1 in V, 2 departed
}

// NewWindowChecker returns a checker for delay T (≥ 1).
func NewWindowChecker(T int) *WindowChecker {
	if T < 1 {
		T = 1
	}
	return &WindowChecker{T: T, present: make(map[int]int)}
}

// Record validates one step: prescribed is W_i, members is V_i.
func (wc *WindowChecker) Record(prescribed, members []int) error {
	w := make(map[int]bool, len(prescribed))
	for _, id := range prescribed {
		w[id] = true
	}
	wc.w = append(wc.w, w)
	lo := len(wc.w) - 1 - wc.T
	if lo < 0 {
		lo = 0
	}
	window := wc.w[lo:]

	inV := make(map[int]bool, len(members))
	for _, id := range members {
		inV[id] = true
		// V_i ⊆ ∪ W_j over the window.
		inUnion := false
		for _, wj := range window {
			if wj[id] {
				inUnion = true
				break
			}
		}
		if !inUnion {
			return fmt.Errorf("churn: member %d outside the union of the last %d prescriptions", id, len(window))
		}
		// Monotonicity: a departed id must not reappear.
		if wc.present[id] == 2 {
			return fmt.Errorf("churn: id %d re-entered after leaving", id)
		}
		wc.present[id] = 1
	}
	// ∩ W_j ⊆ V_i.
	for id := range window[0] {
		inAll := true
		for _, wj := range window[1:] {
			if !wj[id] {
				inAll = false
				break
			}
		}
		if inAll && !inV[id] {
			return fmt.Errorf("churn: id %d prescribed throughout the window but absent from V", id)
		}
	}
	// Mark departures.
	for id, state := range wc.present {
		if state == 1 && !inV[id] {
			wc.present[id] = 2
		}
	}
	return nil
}

// Run drives a core.Network under the adversary for the given number
// of epochs and returns the per-epoch reports.
func Run(nw *core.Network, adv Adversary, epochs int) []core.EpochReport {
	reports := make([]core.EpochReport, 0, epochs)
	for e := 0; e < epochs; e++ {
		view := View{
			Epoch:   e,
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
