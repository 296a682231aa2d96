package anon

import (
	"math"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
)

func newSys(t *testing.T, seed uint64, n int) *System {
	t.Helper()
	net := supernode.New(supernode.Config{Seed: seed, N: n, MeasureEvery: -1})
	return NewSystem(net, seed+1000)
}

func TestRequestNoBlocking(t *testing.T) {
	sy := newSys(t, 1, 256)
	for i := 0; i < 100; i++ {
		res := sy.Request(sim.NodeID(i+1), nil)
		if !res.Delivered || !res.ReplyDelivered {
			t.Fatalf("request %d failed without blocking: %+v", i, res)
		}
		if res.Rounds != 4 {
			t.Fatalf("rounds = %d, want 4 (O(1))", res.Rounds)
		}
	}
}

func TestBlockedEntryFails(t *testing.T) {
	sy := newSys(t, 2, 256)
	blocked := []map[sim.NodeID]bool{{sim.NodeID(1): true}}
	res := sy.Request(sim.NodeID(1), blocked)
	if res.Delivered {
		t.Fatal("request through blocked entry delivered")
	}
}

func TestDeliveryUnderHeavyBlocking(t *testing.T) {
	// Corollary 2: delivery survives a (1/2−ε)-bounded attack, because
	// a majority of every destination group stays available w.h.p.
	sy := newSys(t, 3, 512)
	r := rng.New(30)
	adv := &dos.Random{Fraction: 0.4, R: r, IDs: func() []sim.NodeID {
		ids := make([]sim.NodeID, 512)
		for i := range ids {
			ids[i] = sim.NodeID(i + 1)
		}
		return ids
	}}
	delivered, replied, total := 0, 0, 0
	for i := 0; i < 500; i++ {
		seq := []map[sim.NodeID]bool{
			adv.SelectBlocked(i, 512, nil),
			adv.SelectBlocked(i+1, 512, nil),
			adv.SelectBlocked(i+2, 512, nil),
			adv.SelectBlocked(i+3, 512, nil),
		}
		// The user contacts a non-blocked entry server.
		entry := sim.NodeID(0)
		for v := 1; v <= 512; v++ {
			if !seq[0][sim.NodeID(v)] {
				entry = sim.NodeID(v)
				break
			}
		}
		res := sy.Request(entry, seq)
		total++
		if res.Delivered {
			delivered++
		}
		if res.ReplyDelivered {
			replied++
		}
	}
	if float64(delivered)/float64(total) < 0.99 {
		t.Fatalf("delivery rate %d/%d under 0.4 blocking", delivered, total)
	}
	if float64(replied)/float64(total) < 0.95 {
		t.Fatalf("reply rate %d/%d under 0.4 blocking", replied, total)
	}
}

func TestExitDistributionNearUniform(t *testing.T) {
	// The anonymity requirement: the exit server is uniform w.r.t. the
	// attacker's knowledge. With fresh destination groups each epoch
	// and no blocking, the empirical exit entropy approaches log₂ n.
	sy := newSys(t, 4, 256)
	counts := make([]int, 256)
	const trials = 20000
	for i := 0; i < trials; i++ {
		if i%100 == 0 {
			sy.ResampleDestinations() // fresh epoch
		}
		entry := sim.NodeID(i%256 + 1)
		res := sy.Request(entry, nil)
		if !res.Delivered {
			t.Fatal("undelivered without blocking")
		}
		counts[int(res.Exit)-1]++
	}
	h := metrics.Entropy(counts)
	if h < 0.95*math.Log2(256) {
		t.Fatalf("exit entropy %.3f of %.3f bits; exits not near-uniform", h, math.Log2(256))
	}
}

func TestDestGroupUniform(t *testing.T) {
	sy := newSys(t, 5, 256)
	nSuper := sy.Net.NSuper()
	counts := make([]int, nSuper)
	const resamples = 3000
	for i := 0; i < resamples; i++ {
		sy.ResampleDestinations()
		res := sy.Request(sim.NodeID(1), nil)
		counts[res.DestGroup]++
	}
	tv := metrics.TVDistanceUniform(counts)
	env := metrics.ExpectedTVUniform(nSuper, resamples)
	if tv > 3*env {
		t.Fatalf("destination groups TV %.4f > 3x envelope %.4f", tv, env)
	}
}

func TestServersCount(t *testing.T) {
	sy := newSys(t, 6, 128)
	if len(sy.dest) != 128 {
		t.Fatalf("servers = %d", len(sy.dest))
	}
}
