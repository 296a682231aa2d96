package supernode

import (
	"math"
	"strings"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func TestNewGroupSizesConcentrate(t *testing.T) {
	// Lemma 16: group sizes stay within (1±δ)·n/N.
	nw := New(Config{Seed: 1, N: 1024})
	avg := float64(nw.cfg.N) / float64(nw.NSuper())
	for x, s := range nw.GroupSizes() {
		if float64(s) < 0.4*avg || float64(s) > 1.6*avg {
			t.Fatalf("group %d size %d far from mean %.1f", x, s, avg)
		}
	}
	// Every node in exactly one group.
	seen := map[sim.NodeID]bool{}
	total := 0
	for _, g := range nw.Groups() {
		for _, id := range g {
			if seen[id] {
				t.Fatalf("node %d in two groups", id)
			}
			seen[id] = true
			total++
		}
	}
	if total != 1024 {
		t.Fatalf("partition covers %d nodes", total)
	}
}

func TestDimensionIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{64, 256, 1024, 4096, 16384} {
		nw := New(Config{Seed: 2, N: n, MeasureEvery: -1})
		d := nw.dim
		if d&(d-1) != 0 {
			t.Fatalf("n=%d: dimension %d not a power of two", n, d)
		}
		if nw.NSuper() != 1<<d {
			t.Fatalf("n=%d: nSuper mismatch", n)
		}
	}
}

func TestEpochProgressionNoAdversary(t *testing.T) {
	nw := New(Config{Seed: 3, N: 256})
	before := append([]int32(nil), nw.eng.NodeGroup...)
	rounds := nw.EpochRounds()
	reports := nw.Run(nil, &dos.Buffer{Lateness: rounds}, rounds)
	if nw.Epoch() != 1 {
		t.Fatalf("epoch = %d after %d rounds, want 1", nw.Epoch(), rounds)
	}
	for _, rep := range reports {
		if rep.Measured && !rep.Connected {
			t.Fatalf("round %d disconnected with no adversary", rep.Round)
		}
		if rep.Stalls != 0 {
			t.Fatalf("round %d: %d stalls with no adversary", rep.Round, rep.Stalls)
		}
	}
	st := nw.StatsSnapshot()
	if st.SampleFails != 0 || st.AssignFails != 0 || st.EmptyGroups != 0 {
		t.Fatalf("protocol failures with no adversary: %+v", st)
	}
	// The rebuild must actually change assignments.
	changed := 0
	for v, g := range nw.eng.NodeGroup {
		if g != before[v] {
			changed++
		}
	}
	if changed < 128 {
		t.Fatalf("only %d of 256 nodes moved groups", changed)
	}
}

func TestGroupRebuildKeepsConcentration(t *testing.T) {
	nw := New(Config{Seed: 4, N: 1024, MeasureEvery: -1})
	nw.Run(nil, &dos.Buffer{Lateness: 1}, 3*nw.EpochRounds())
	if nw.Epoch() != 3 {
		t.Fatalf("epoch = %d, want 3", nw.Epoch())
	}
	avg := 1024.0 / float64(nw.NSuper())
	for x, s := range nw.GroupSizes() {
		if float64(s) < 0.3*avg || float64(s) > 1.8*avg {
			t.Fatalf("group %d size %d after rebuilds (mean %.1f)", x, s, avg)
		}
	}
}

func TestRandomAdversaryLateConnected(t *testing.T) {
	// Theorem 6 regime: (1/2−ε)-bounded random blocking, 2t-late view.
	nw := New(Config{Seed: 5, N: 512})
	ids := make([]sim.NodeID, 512)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	adv := &dos.Random{Fraction: 0.4, R: rng.New(50), IDs: func() []sim.NodeID { return ids }}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	reports := nw.Run(adv, buf, 3*nw.EpochRounds())
	for _, rep := range reports {
		if rep.Measured && !rep.Connected {
			t.Fatalf("round %d disconnected under random 0.4 blocking", rep.Round)
		}
	}
	// A stall (a group with no available member in a round) needs every
	// member blocked: Lemma 17 makes it rare, not impossible. Over seeds
	// 1–100 one run stalled once, 1 stall in 67,200 group-rounds, whose
	// Clopper–Pearson 95 % upper bound is 7.1e-5 per group-round. So the
	// assert is a rate, far above that bound: at most 1 % of the run's
	// group-rounds.
	st := nw.StatsSnapshot()
	if groupRounds := nw.NSuper() * st.Rounds; st.Stalls*100 > groupRounds {
		t.Fatalf("stalls in %d of %d group-rounds under random blocking, want at most 1 %%", st.Stalls, groupRounds)
	}
}

func TestGroupIsolateLateAdversaryFails(t *testing.T) {
	// The strongest group attack with Ω(log log n)-late information
	// must fail: by the time the blocks land the groups have been
	// rebuilt (Theorem 6).
	nw := New(Config{Seed: 6, N: 512})
	adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(60)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	reports := nw.Run(adv, buf, 4*nw.EpochRounds())
	disconnected := 0
	for _, rep := range reports {
		if rep.Measured && !rep.Connected {
			disconnected++
		}
	}
	if disconnected != 0 {
		t.Fatalf("%d rounds disconnected under late group-isolate", disconnected)
	}
}

func TestGroupIsolateZeroLateDisconnects(t *testing.T) {
	// Negative control (Section 1.1): with real-time topology the same
	// adversary isolates a whole group.
	nw := New(Config{Seed: 7, N: 512})
	adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(70)}
	buf := &dos.Buffer{Lateness: 0}
	reports := nw.Run(adv, buf, 2*nw.EpochRounds())
	disconnected := 0
	for _, rep := range reports {
		if rep.Measured && !rep.Connected {
			disconnected++
		}
	}
	if disconnected == 0 {
		t.Fatal("0-late group-isolate failed to disconnect the network; the negative control is broken")
	}
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	nw := New(Config{Seed: 8, N: 64, MeasureEvery: -1})
	s := nw.Snapshot()
	s.Groups[0] = append(s.Groups[0], 9999)
	if len(nw.Groups()[0]) == len(s.Groups[0]) {
		t.Fatal("snapshot shares group storage with the network")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []int32 {
		nw := New(Config{Seed: 9, N: 256, MeasureEvery: -1})
		adv := &dos.GroupIsolate{Fraction: 0.3, R: rng.New(90)}
		nw.Run(adv, &dos.Buffer{Lateness: nw.EpochRounds()}, 2*nw.EpochRounds())
		return append([]int32(nil), nw.eng.NodeGroup...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at node %d", i)
		}
	}
}

func TestEpochRoundsIsLogLog(t *testing.T) {
	small := New(Config{Seed: 10, N: 256, MeasureEvery: -1})
	big := New(Config{Seed: 10, N: 65536, MeasureEvery: -1})
	if big.EpochRounds() > small.EpochRounds()+8 {
		t.Fatalf("epoch rounds grew too fast: %d -> %d", small.EpochRounds(), big.EpochRounds())
	}
}

func TestStaleNodesRecover(t *testing.T) {
	// Block one node for a long stretch; when released it must catch
	// up via the every-round S(x) broadcast within two rounds.
	nw := New(Config{Seed: 11, N: 256})
	victim := sim.NodeID(1)
	blockedSet := map[sim.NodeID]bool{victim: true}
	for i := 0; i < nw.EpochRounds()+3; i++ {
		nw.Step(blockedSet)
	}
	if nw.eng.ViewEpoch[0] == int32(nw.Epoch()) && nw.Epoch() > 0 {
		t.Fatal("blocked node impossibly up to date")
	}
	nw.Step(nil)
	nw.Step(nil)
	nw.Step(nil)
	if nw.eng.ViewEpoch[0] != int32(nw.Epoch()) {
		t.Fatalf("released node still stale: view %d vs epoch %d", nw.eng.ViewEpoch[0], nw.Epoch())
	}
}

// TestValidateArity: an arity the engine cannot store (a coordinate is
// packed in at most 8 bits) or the cube cannot have is an error that says
// so, at any n, not a panic in New.
func TestValidateArity(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want string // substring of the error; "" = valid
	}{
		{k: 0, n: 1024},
		{k: 3, n: 1024},
		{k: 256, n: 1 << 22},
		{k: 1, n: 1024, want: "outside [2, 256]"},
		{k: 257, n: 1 << 22, want: "outside [2, 256]"},
		{k: 1 << 20, n: 1 << 62, want: "outside [2, 256]"},
		{k: 16, n: 1024, want: "too large for n"},
	} {
		err := Config{N: c.n, K: c.k}.Validate()
		if (err == nil) != (c.want == "") || err != nil && !strings.Contains(err.Error(), c.want) {
			t.Errorf("K=%d N=%d: Validate() = %v, want an error containing %q", c.k, c.n, err, c.want)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite epsilon must fail
// Validate. Past it, New slices out of range on such an epsilon.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Epsilon=NaN", Config{N: 1024, Epsilon: nan}},
		{"Epsilon=+Inf", Config{N: 1024, Epsilon: inf}},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: Validate() = %v, want an error saying the value must be finite", c.name, err)
		}
	}
}
