package core

import (
	"fmt"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
)

// RefCycle is the new cycle produced by a reference reconfiguration,
// over an arbitrary id set.
type RefCycle struct {
	Succ map[int]int
	Pred map[int]int
	// Active[v] reports whether old vertex v received at least one
	// placement (the paper's notion of an active node).
	Active []bool
	// Placed[v] is the number of ids placed at old vertex v
	// (the congestion quantity of Lemma 11).
	Placed []int
}

// ReconfigureRef is the centralized reference implementation of
// Algorithm 3 for one Hamilton cycle: every id in placed (staying
// nodes and joiners) is assigned to a uniformly random old vertex, each
// old vertex permutes its assigned ids uniformly, and the sequences are
// concatenated in old-cycle order. By Lemma 10 the resulting cycle is
// uniform over all Hamilton cycles on the placed ids.
//
// old is the previous cycle over vertices 0..n−1; placed lists the ids
// to incorporate (at least 3).
func ReconfigureRef(r *rng.RNG, old *hgraph.Cycle, placed []int) (*RefCycle, error) {
	n := 1
	for v := old.Succ(0); v != 0; v = old.Succ(v) {
		n++
	}
	if len(placed) < 3 {
		return nil, fmt.Errorf("core: need at least 3 placed ids, got %d", len(placed))
	}
	// Phase 1: uniform targets.
	buckets := make([][]int, n)
	for _, id := range placed {
		t := r.Intn(n)
		buckets[t] = append(buckets[t], id)
	}
	rc := &RefCycle{
		Succ:   make(map[int]int, len(placed)),
		Pred:   make(map[int]int, len(placed)),
		Active: make([]bool, n),
		Placed: make([]int, n),
	}
	// Phase 2: per-target uniform permutations; Phases 3/4: concatenate
	// the sequences in old-cycle order starting (wlog) at vertex 0.
	var order []int
	v := 0
	for i := 0; i < n; i++ {
		rc.Placed[v] = len(buckets[v])
		if len(buckets[v]) > 0 {
			rc.Active[v] = true
			perm := r.Perm(len(buckets[v]))
			for _, k := range perm {
				order = append(order, buckets[v][k])
			}
		}
		v = old.Succ(v)
	}
	for i, id := range order {
		next := order[(i+1)%len(order)]
		rc.Succ[id] = next
		rc.Pred[next] = id
	}
	return rc, nil
}

// Validate checks that the reference cycle is a single Hamilton cycle
// over exactly the given id set.
func (rc *RefCycle) Validate(ids []int) error {
	if len(rc.Succ) != len(ids) {
		return fmt.Errorf("core: cycle has %d ids, want %d", len(rc.Succ), len(ids))
	}
	for _, id := range ids {
		if _, ok := rc.Succ[id]; !ok {
			return fmt.Errorf("core: id %d missing from cycle", id)
		}
	}
	start := ids[0]
	v := start
	for i := 0; i < len(ids); i++ {
		w := rc.Succ[v]
		if rc.Pred[w] != v {
			return fmt.Errorf("core: pred(succ(%d)) = %d", v, rc.Pred[w])
		}
		v = w
		if v == start && i != len(ids)-1 {
			return fmt.Errorf("core: cycle closed early after %d steps", i+1)
		}
	}
	if v != start {
		return fmt.Errorf("core: cycle did not close")
	}
	return nil
}
