package splitmerge

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func TestNewInvariants(t *testing.T) {
	nw := New(Config{Seed: 1, N0: 512, MeasureEvery: -1})
	if !nw.Eq1Holds() {
		t.Fatalf("Equation 1 violated initially: sizes %v labels %v", nw.GroupSizes(), nw.Labels())
	}
	min, max := nw.DimRange()
	if max-min > 2 {
		t.Fatalf("dimension spread %d > 2", max-min)
	}
	if nw.N() != 512 {
		t.Fatalf("member count %d", nw.N())
	}
	// Every member indexed exactly once.
	if len(nw.Members()) != 512 {
		t.Fatalf("Members() has %d entries", len(nw.Members()))
	}
}

func TestStaticEpochs(t *testing.T) {
	nw := New(Config{Seed: 2, N0: 512})
	buf := &dos.Buffer{Lateness: 1}
	for e := 0; e < 3; e++ {
		reports := nw.Run(nil, buf, nw.EpochRounds())
		for _, rep := range reports {
			if rep.Measured && !rep.Connected {
				t.Fatalf("epoch %d round %d disconnected with no adversary", e, rep.Round)
			}
		}
	}
	if nw.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", nw.Epoch())
	}
	st := nw.StatsSnapshot()
	if st.Stalls != 0 || st.SampleFails != 0 || st.AssignFails != 0 {
		t.Fatalf("failures with no adversary: %+v", st)
	}
	if !nw.Eq1Holds() {
		t.Fatalf("Equation 1 violated after epochs: %v", nw.GroupSizes())
	}
	if st.Eq1Violations != 0 {
		t.Fatalf("normalization left violations: %+v", st)
	}
}

func TestAssignmentProbabilityByDimension(t *testing.T) {
	// The modified primitive must choose supernode x with probability
	// 2^{−d(x)}: group sizes after a reorg should be proportional to
	// 2^{−d(x)}·n, which is exactly what Equation (1)'s enforcement
	// relies on.
	nw := New(Config{Seed: 3, N0: 768, MeasureEvery: -1})
	min, max := nw.DimRange()
	if min == max {
		t.Skip("homogeneous dimensions; nothing to compare")
	}
	nw.Run(nil, &dos.Buffer{Lateness: 1}, nw.EpochRounds())
	// Compare average size of min-dim groups vs max-dim groups; sizes
	// were recorded BEFORE normalization splits them up, so inspect the
	// reorg outcome indirectly via Eq1 and spread instead.
	if !nw.Eq1Holds() {
		t.Fatalf("Equation 1 violated after dimension-weighted reorg")
	}
	_, maxAfter := nw.DimRange()
	minAfter, _ := nw.DimRange()
	if maxAfter-minAfter > 2 {
		t.Fatalf("dimension spread %d after reorg", maxAfter-minAfter)
	}
}

func TestChurnGrowth(t *testing.T) {
	nw := New(Config{Seed: 4, N0: 256})
	buf := &dos.Buffer{Lateness: 1}
	r := rng.New(40)
	// Grow by ~40% per epoch for 4 epochs: supernodes must split and
	// Equation 1 must keep holding (churn rate γ per reconfiguration).
	for e := 0; e < 4; e++ {
		members := nw.Members()
		for i := 0; i < len(members)*2/5; i++ {
			nw.Join(members[r.Intn(len(members))])
		}
		reports := nw.Run(nil, buf, nw.EpochRounds())
		for _, rep := range reports {
			if rep.Measured && !rep.Connected {
				t.Fatalf("growth epoch %d disconnected", e)
			}
		}
		if !nw.Eq1Holds() {
			t.Fatalf("Equation 1 violated after growth epoch %d: %v", e, nw.GroupSizes())
		}
		min, max := nw.DimRange()
		if max-min > 2 {
			t.Fatalf("dimension spread %d after growth epoch %d", max-min, e)
		}
	}
	if nw.StatsSnapshot().Splits == 0 {
		t.Fatal("substantial growth caused no splits")
	}
	if nw.N() <= 256 {
		t.Fatalf("network did not grow: %d", nw.N())
	}
}

func TestChurnShrink(t *testing.T) {
	nw := New(Config{Seed: 5, N0: 1024})
	buf := &dos.Buffer{Lateness: 1}
	r := rng.New(50)
	for e := 0; e < 4; e++ {
		members := nw.Members()
		gone := map[sim.NodeID]bool{}
		for len(gone) < len(members)/3 {
			id := members[r.Intn(len(members))]
			if !gone[id] {
				gone[id] = true
				nw.Leave(id)
			}
		}
		reports := nw.Run(nil, buf, nw.EpochRounds())
		for _, rep := range reports {
			if rep.Measured && !rep.Connected {
				t.Fatalf("shrink epoch %d disconnected", e)
			}
		}
		if !nw.Eq1Holds() {
			t.Fatalf("Equation 1 violated after shrink epoch %d: %v (labels %v)", e, nw.GroupSizes(), nw.Labels())
		}
	}
	if nw.StatsSnapshot().Merges+nw.StatsSnapshot().ForcedMerges == 0 {
		t.Fatal("substantial shrinking caused no merges")
	}
	if nw.N() >= 1024/2 {
		t.Fatalf("network did not shrink enough: %d", nw.N())
	}
}

func TestChurnAndDoSCombined(t *testing.T) {
	// Theorem 7: connectivity under simultaneous churn and a
	// (1/2−ε)-bounded late DoS adversary.
	nw := New(Config{Seed: 6, N0: 512})
	adv := &dos.GroupIsolate{Fraction: 0.3, R: rng.New(60)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	r := rng.New(61)
	for e := 0; e < 4; e++ {
		members := nw.Members()
		churn := len(members) / 8
		gone := map[sim.NodeID]bool{}
		for len(gone) < churn {
			id := members[r.Intn(len(members))]
			if !gone[id] {
				gone[id] = true
				nw.Leave(id)
			}
		}
		for i := 0; i < churn; i++ {
			for {
				s := members[r.Intn(len(members))]
				if !gone[s] {
					nw.Join(s)
					break
				}
			}
		}
		reports := nw.Run(adv, buf, nw.EpochRounds())
		for _, rep := range reports {
			if rep.Measured && !rep.Connected {
				t.Fatalf("combined epoch %d round %d disconnected", e, rep.Round)
			}
		}
	}
	st := nw.StatsSnapshot()
	if st.Stalls != 0 {
		t.Fatalf("stalls under late adversary: %+v", st)
	}
	if st.MaxDimSpread > 2 {
		t.Fatalf("dimension spread %d > 2", st.MaxDimSpread)
	}
}

func TestJoinLeaveBookkeeping(t *testing.T) {
	nw := New(Config{Seed: 7, N0: 256, MeasureEvery: -1})
	id := nw.Join(nw.Members()[0])
	if nw.superOf(id) >= 0 {
		t.Fatal("joiner already a committed member")
	}
	nw.Leave(nw.Members()[5])
	nBefore := nw.N()
	nw.Run(nil, &dos.Buffer{Lateness: 1}, nw.EpochRounds())
	if nw.N() != nBefore {
		t.Fatalf("one join + one leave changed n: %d -> %d", nBefore, nw.N())
	}
	if nw.superOf(id) < 0 {
		t.Fatal("joiner not committed after the epoch")
	}
}

func TestLeaveUnknownPanics(t *testing.T) {
	nw := New(Config{Seed: 8, N0: 256, MeasureEvery: -1})
	defer func() {
		if recover() == nil {
			t.Fatal("Leave of unknown id did not panic")
		}
	}()
	nw.Leave(sim.NodeID(99999))
}

func TestDeterministic(t *testing.T) {
	run := func() []int {
		nw := New(Config{Seed: 9, N0: 256, MeasureEvery: -1})
		r := rng.New(90)
		for e := 0; e < 2; e++ {
			members := nw.Members()
			for i := 0; i < 20; i++ {
				nw.Join(members[r.Intn(len(members))])
			}
			nw.Run(nil, &dos.Buffer{Lateness: 1}, nw.EpochRounds())
		}
		return nw.GroupSizes()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different structure: %d vs %d supernodes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic group sizes")
		}
	}
}

func TestZeroLateDisconnects(t *testing.T) {
	// Negative control carries over from Section 5.
	nw := New(Config{Seed: 10, N0: 512})
	adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(100)}
	buf := &dos.Buffer{Lateness: 0}
	reports := nw.Run(adv, buf, 2*nw.EpochRounds())
	disconnected := 0
	for _, rep := range reports {
		if rep.Measured && !rep.Connected {
			disconnected++
		}
	}
	if disconnected == 0 {
		t.Fatal("0-late adversary failed to disconnect the split/merge network")
	}
}

// TestReplaceMembersTranscript pins ReplaceMembers to the loop E10 and
// X1 each carried inline before it existed,
// recorded from that loop at seed 7, n₀ = 128, rng.New(99): the same
// members leave in the same order, every joiner enters through the same
// sponsor (observed as the group it waits in — ids are handed out in
// join order), and the generator has made the same number of draws.
func TestReplaceMembersTranscript(t *testing.T) {
	for _, tc := range []struct {
		k        int
		leavers  []sim.NodeID
		sponsors []sim.NodeID
		digest   string // of "leavers groups" where the transcript is too long to spell out
		next     uint64 // the generator's next draw after the call
	}{
		{k: 16,
			leavers:  []sim.NodeID{45, 73, 49, 110, 101, 27, 36, 8, 109, 75, 95, 23, 20, 17, 51, 66},
			sponsors: []sim.NodeID{26, 117, 97, 57, 37, 83, 86, 14, 42, 37, 79, 21, 7, 1, 14, 104},
			next:     13177633058780226051},
		{k: 0, next: 6432450796990294708},
		// X1's clamp: 8 members always stay, so 120 of 128 are replaced.
		{k: 1000, digest: "4a4a52aa8528863c", next: 4233866739821705342},
	} {
		nw := New(Config{Seed: 7, N0: 128, MeasureEvery: -1})
		r := rng.New(99)
		first := nw.nextID
		nw.ReplaceMembers(r, tc.k)
		groups := make([]int32, nw.nextID-first)
		for x, s := range nw.supers {
			for _, id := range s.pending {
				groups[id-first] = int32(x)
			}
		}
		if want := min(tc.k, 120); len(nw.leavingIDs) != want || len(groups) != want {
			t.Fatalf("k=%d: %d leavers and %d joiners, want %d of each", tc.k, len(nw.leavingIDs), len(groups), want)
		}
		if tc.digest != "" {
			h := fnv.New64a()
			fmt.Fprintf(h, "%v %v", nw.leavingIDs, groups)
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.digest {
				t.Fatalf("k=%d: transcript digest %s, recorded %s", tc.k, got, tc.digest)
			}
		} else {
			if !slices.Equal(nw.leavingIDs, tc.leavers) {
				t.Fatalf("k=%d: leavers %v, recorded %v", tc.k, nw.leavingIDs, tc.leavers)
			}
			for i, s := range tc.sponsors {
				if groups[i] != nw.superOf(s) {
					t.Fatalf("k=%d: joiner %d waits in group %d, not in that of its recorded sponsor %d", tc.k, i, groups[i], s)
				}
			}
		}
		if got := r.Uint64(); got != tc.next {
			t.Fatalf("k=%d: generator is at %d after the call, recorded %d (a different number of draws)", tc.k, got, tc.next)
		}
		nw.Close()
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite epsilon must fail
// Validate. Past it, New slices out of range.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, eps := range []float64{math.NaN(), math.Inf(1)} {
		if err := (Config{N0: 256, Epsilon: eps}).Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("Epsilon=%g: Validate() = %v, want an error saying it must be finite", eps, err)
		}
	}
}
