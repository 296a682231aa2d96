package splitmerge

import (
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// checkLabelPartition verifies that the supernode labels tile the label
// space exactly: Σ 2^{−d(x)} = 1 and no label is an ancestor of
// another. This is the structural invariant behind the 2^{−d(x)}
// sampling probabilities summing to one.
func checkLabelPartition(t *testing.T, nw *Network) {
	t.Helper()
	labels := nw.Labels()
	// Use 2^{dmax−d(x)} integer weights to avoid float error.
	_, dmax := nw.DimRange()
	sum := 0
	for _, l := range labels {
		sum += 1 << (dmax - l.Dim())
	}
	if sum != 1<<dmax {
		t.Fatalf("labels do not tile the space: sum %d of %d (labels %v)", sum, 1<<dmax, labels)
	}
	for i := range labels {
		for j := range labels {
			if i != j && labels[i].IsAncestorOf(labels[j]) {
				t.Fatalf("label %v is an ancestor of %v", labels[i], labels[j])
			}
			if i != j && labels[i].Equal(labels[j]) {
				t.Fatalf("duplicate label %v", labels[i])
			}
		}
	}
}

func TestLabelPartitionInvariantInitially(t *testing.T) {
	for _, n := range []int{64, 200, 512, 1000} {
		nw := New(Config{Seed: uint64(n), N0: n, MeasureEvery: -1})
		checkLabelPartition(t, nw)
	}
}

func TestLabelPartitionInvariantUnderChurn(t *testing.T) {
	nw := New(Config{Seed: 1, N0: 256, MeasureEvery: -1})
	r := rng.New(2)
	buf := &dos.Buffer{Lateness: 1}
	for e := 0; e < 5; e++ {
		members := nw.Members()
		// Alternate aggressive growth and shrinkage.
		if e%2 == 0 {
			for i := 0; i < len(members)/2; i++ {
				nw.Join(members[r.Intn(len(members))])
			}
		} else {
			gone := map[sim.NodeID]bool{}
			for len(gone) < len(members)/3 {
				id := members[r.Intn(len(members))]
				if !gone[id] {
					gone[id] = true
					nw.Leave(id)
				}
			}
		}
		nw.Run(nil, buf, nw.EpochRounds())
		checkLabelPartition(t, nw)
	}
}

func TestOwnerOfCoversEveryVirtualVertex(t *testing.T) {
	nw := New(Config{Seed: 3, N0: 300, MeasureEvery: -1})
	_, dmax := nw.DimRange()
	seen := make([]int, nw.NumSupers())
	for w := 0; w < 1<<dmax; w++ {
		oi := nw.ownerOf(int32(w))
		if oi < 0 {
			t.Fatalf("virtual vertex %b has no owner", w)
		}
		seen[oi]++
	}
	for i, s := range nw.supers {
		want := 1 << (dmax - s.label.Dim())
		if seen[i] != want {
			t.Fatalf("supernode %v owns %d virtual vertices, want %d", s.label, seen[i], want)
		}
	}
}

func TestMembershipIsPartition(t *testing.T) {
	nw := New(Config{Seed: 4, N0: 400, MeasureEvery: -1})
	nw.Run(nil, &dos.Buffer{Lateness: 1}, 2*nw.EpochRounds())
	seen := map[sim.NodeID]int{}
	for _, s := range nw.supers {
		for _, id := range s.members {
			seen[id]++
		}
	}
	if len(seen) != nw.N() {
		t.Fatalf("membership covers %d ids, N() = %d", len(seen), nw.N())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("node %d appears in %d groups", id, c)
		}
	}
}

func TestSamplingProbabilityProportionalToDimension(t *testing.T) {
	// The modified primitive chooses supernode x with probability
	// 2^{−d(x)}: aggregate the assignment targets across an epoch and
	// compare the per-supernode mass, normalized by 2^{−d}.
	nw := New(Config{Seed: 5, N0: 700, MeasureEvery: -1})
	min, max := nw.DimRange()
	if min == max {
		t.Skip("homogeneous initial dimensions for this n; invariant vacuous")
	}
	// Pre-normalization sizes are not retained, so verify the
	// post-normalization consequence over several epochs: Equation (1)
	// keeps holding, which requires the assignment mass to be
	// ∝ 2^{−d(x)} (a uniform-per-supernode assignment would overload
	// the low-dimension supernodes every epoch).
	for e := 0; e < 3; e++ {
		nw.Run(nil, &dos.Buffer{Lateness: 1}, nw.EpochRounds())
		if !nw.Eq1Holds() {
			t.Fatalf("Equation 1 violated after dimension-weighted assignment (epoch %d)", e)
		}
	}
}

func TestHypercubeConnectedSymmetryAcrossDims(t *testing.T) {
	nw := New(Config{Seed: 6, N0: 300, MeasureEvery: -1})
	labels := nw.Labels()
	for i := range labels {
		for j := range labels {
			if hypercube.Connected(labels[i], labels[j]) != hypercube.Connected(labels[j], labels[i]) {
				t.Fatalf("Connected not symmetric for %v, %v", labels[i], labels[j])
			}
		}
	}
}

func TestShrinkToMinimum(t *testing.T) {
	// Shrink hard repeatedly; the network must keep Equation (1) by
	// merging, never panic, and stay connected.
	nw := New(Config{Seed: 7, N0: 512})
	r := rng.New(8)
	buf := &dos.Buffer{Lateness: 1}
	for e := 0; e < 6; e++ {
		members := nw.Members()
		k := len(members) / 2
		if len(members)-k < 40 {
			break
		}
		gone := map[sim.NodeID]bool{}
		for len(gone) < k {
			id := members[r.Intn(len(members))]
			if !gone[id] {
				gone[id] = true
				nw.Leave(id)
			}
		}
		for _, rep := range nw.Run(nil, buf, nw.EpochRounds()) {
			if rep.Measured && !rep.Connected {
				t.Fatalf("disconnected while shrinking at epoch %d", e)
			}
		}
		checkLabelPartition(t, nw)
		if !nw.Eq1Holds() {
			t.Fatalf("Equation 1 violated at n=%d: %v / %v", nw.N(), nw.GroupSizes(), nw.Labels())
		}
	}
	if nw.StatsSnapshot().Merges+nw.StatsSnapshot().ForcedMerges == 0 {
		t.Fatal("halving repeatedly never merged")
	}
}
