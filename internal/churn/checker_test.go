package churn

import "fmt"

// The §1.1 churn model's two rules as checkers: the rate bound on
// consecutive node sets, and the delay-T containment of the realized
// member sets in the prescribed ones. The tests run the adversaries and
// the network against them.

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
