package dos

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// cubeSnapshot is a dim-dimensional hypercube of 2^dim groups of size
// members each, ids 1..2^dim·size in group order.
func cubeSnapshot(dim, size int) *Snapshot {
	s := &Snapshot{Groups: make([][]sim.NodeID, 1<<dim), Adj: make([][]int32, 1<<dim)}
	for x := range s.Groups {
		for i := 0; i < size; i++ {
			s.Groups[x] = append(s.Groups[x], sim.NodeID(x*size+i+1))
		}
		for b := 0; b < dim; b++ {
			s.Adj[x] = append(s.Adj[x], int32(x^1<<b))
		}
	}
	return s
}

// TestFractionClamped: every adversary treats a NaN or non-positive
// fraction as "block nobody" and one above 1 as exactly 1, within a
// budget of ⌊fraction·n⌋ between.
func TestFractionClamped(t *testing.T) {
	const n = 64
	s := cubeSnapshot(3, n/8)
	ids := make([]sim.NodeID, n)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	adversaries := map[string]func(f float64) Adversary{
		"Random": func(f float64) Adversary {
			return &Random{Fraction: f, R: rng.New(1), IDs: func() []sim.NodeID { return ids }}
		},
		"GroupIsolate":  func(f float64) Adversary { return &GroupIsolate{Fraction: f, R: rng.New(2)} },
		"WholeGroups":   func(f float64) Adversary { return &WholeGroups{Fraction: f, R: rng.New(3)} },
		"HalfEachGroup": func(f float64) Adversary { return &HalfEachGroup{Fraction: f, R: rng.New(4)} },
	}
	for name, build := range adversaries {
		full := build(1).SelectBlocked(1, n, s)
		for _, f := range []float64{math.NaN(), -0.5, 0, 0.4, 1, 1.5} {
			t.Run(fmt.Sprintf("%s/%v", name, f), func(t *testing.T) {
				blocked := build(f).SelectBlocked(1, n, s)
				limit := 0
				switch {
				case f >= 1:
					limit = n
				case f > 0:
					limit = int(f * n)
				}
				if len(blocked) > limit || name == "Random" && len(blocked) != limit {
					t.Fatalf("blocked %d of %d, budget %d", len(blocked), n, limit)
				}
				if f >= 1 && !maps.Equal(blocked, full) {
					t.Fatalf("fraction %v blocked %d nodes, fraction 1 a different %d", f, len(blocked), len(full))
				}
			})
		}
	}
}

// TestGroupIsolateAllocs pins the selection's allocations at the
// overlay_dos_measured size: the blocked set is sized once from the
// budget instead of growing through its rehashes.
func TestGroupIsolateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race: the race runtime allocates on its own")
	}
	s := cubeSnapshot(8, 16)
	a := &GroupIsolate{Fraction: 0.4, R: rng.New(5)}
	if allocs := testing.AllocsPerRun(20, func() { a.SelectBlocked(1, 4096, s) }); allocs > 8 {
		t.Fatalf("GroupIsolate.SelectBlocked makes %v allocations per call, want ≤ 8", allocs)
	}
}
