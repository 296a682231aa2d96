package supernode

import (
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func TestWholeGroupsLateAdversaryConnected(t *testing.T) {
	nw := New(Config{Seed: 20, N: 512})
	adv := &dos.WholeGroups{Fraction: 0.45, R: rng.New(200)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	for _, rep := range nw.Run(adv, buf, 3*nw.EpochRounds()) {
		if rep.Measured && !rep.Connected {
			t.Fatalf("round %d disconnected under late whole-group blocking", rep.Round)
		}
	}
}

func TestStaleNodeKeepsNetworkConnected(t *testing.T) {
	// A node blocked across a whole reorganization has only stale
	// knowledge afterwards, but the either-direction edge rule (it
	// knows its old contacts; its new group knows it) must keep the
	// measured graph connected the moment it is unblocked.
	nw := New(Config{Seed: 21, N: 256})
	victims := map[sim.NodeID]bool{1: true, 2: true, 3: true}
	for i := 0; i < nw.EpochRounds()+2; i++ {
		nw.Step(victims)
	}
	if nw.Epoch() != 1 {
		t.Fatalf("epoch = %d", nw.Epoch())
	}
	// Victims are stale now. Unblock everyone: the first free round
	// must be measured connected even though the victims still hold
	// epoch-0 views.
	rep := nw.Step(nil)
	if !rep.Measured || !rep.Connected {
		t.Fatalf("network disconnected with stale nodes: %+v", rep)
	}
}

func TestWorkEstimatePolylogScaling(t *testing.T) {
	// Peak per-node work must grow far slower than linearly in n.
	// Compare sizes where the power-of-two dimension restriction is
	// naturally satisfied (n = 256 -> d = 4, n = 4096 -> d = 8, both
	// with Θ(log n) groups); at in-between sizes the d = 2^k rounding
	// inflates the groups polynomially, a documented artifact of
	// Algorithm 2's d = 2^k assumption.
	var prev int64
	for _, n := range []int{256, 4096} {
		nw := New(Config{Seed: 22, N: n, MeasureEvery: -1})
		nw.Run(nil, &dos.Buffer{Lateness: 1}, nw.EpochRounds())
		w := nw.StatsSnapshot().MaxNodeBits
		if w <= 0 {
			t.Fatal("work not measured")
		}
		if prev > 0 && w > 16*prev {
			t.Fatalf("work grew too fast: %d -> %d for 16x nodes", prev, w)
		}
		prev = w
	}
}

func TestConnectedNowOnDemand(t *testing.T) {
	nw := New(Config{Seed: 23, N: 128, MeasureEvery: -1})
	if !nw.ConnectedNow() {
		t.Fatal("fresh network disconnected")
	}
}

func TestRunPublishesEveryRound(t *testing.T) {
	nw := New(Config{Seed: 24, N: 128, MeasureEvery: -1})
	buf := &dos.Buffer{Lateness: 3}
	nw.Run(nil, buf, 10)
	// Each of the 10 steps published the state it started from, rounds
	// 0..9, and each is served 3 rounds late.
	for r := 3; r <= 12; r++ {
		if v := buf.View(r); v == nil || v.Round != r-3 {
			t.Fatalf("round %d sees %+v, want the snapshot of round %d", r, v, r-3)
		}
	}
}

func BenchmarkStep1024(b *testing.B) {
	nw := New(Config{Seed: 1, N: 1024, MeasureEvery: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(nil)
	}
}

func BenchmarkStepWithConnectivity1024(b *testing.B) {
	nw := New(Config{Seed: 1, N: 1024})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(nil)
	}
}

func BenchmarkEpoch4096(b *testing.B) {
	nw := New(Config{Seed: 1, N: 4096, MeasureEvery: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < nw.EpochRounds(); r++ {
			nw.Step(nil)
		}
	}
}
