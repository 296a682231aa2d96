package core

import (
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
)

func mustLat(t *testing.T, s string) sim.Latency {
	t.Helper()
	l, err := sim.ParseLatency(s)
	if err != nil {
		t.Fatalf("ParseLatency(%q): %v", s, err)
	}
	return l
}

// TestReliableZeroSpreadIdentity: with the reliable layer on a
// spread-free model the stretch resolves to 1, the layer is silent
// beyond acks, and the epoch reports — topology validity, failures,
// congestion, peak work — are identical to the legacy synchronous run.
func TestReliableZeroSpreadIdentity(t *testing.T) {
	run := func(cfg Config) []EpochReport {
		nw := NewNetwork(cfg)
		defer nw.Shutdown()
		var reps []EpochReport
		joins := []JoinSpec{{Sponsor: 0}, {Sponsor: 2}}
		leaves := []int{5, 9}
		for e := 0; e < 3; e++ {
			rep, _ := nw.RunEpoch(joins, leaves)
			reps = append(reps, rep)
			joins, leaves = nil, nil
		}
		return reps
	}
	legacy := run(Config{Seed: 42, N0: 32, D: 8})
	rel := run(Config{Seed: 42, N0: 32, D: 8,
		Latency: mustLat(t, "const:1"), Reliable: reliable.On()})
	for e := range legacy {
		if legacy[e] != rel[e] {
			t.Fatalf("epoch %d diverged:\nlegacy   %+v\nreliable %+v", e, legacy[e], rel[e])
		}
	}
}

// TestReliableRecoversDroppedEpoch: a drop rate that breaks the legacy
// epoch (missing assignments, invalid cycles) is won back by the
// reliable layer — at the price of retransmit traffic and a stretched
// epoch — and whatever it could not recover is reported as FailDelivery
// rather than lost silently.
func TestReliableRecoversDroppedEpoch(t *testing.T) {
	const seed, drop = 42, 0.05
	spec := fault.Spec{Seed: seed, Drop: drop}

	legacy := NewNetwork(Config{Seed: seed, N0: 32, D: 8, Latency: mustLat(t, "const:1")})
	legacy.SetInjector(spec.Injector())
	lrep, _ := legacy.RunEpoch(nil, nil)
	legacy.Shutdown()
	if lrep.Failures == 0 && lrep.Valid {
		t.Fatalf("drop=%g did not hurt the legacy epoch; test needs a harsher fault", drop)
	}

	cfg := Config{Seed: seed, N0: 32, D: 8, Latency: mustLat(t, "const:1"),
		Reliable: reliable.Config{On: true, RTO: 3, Backoff: 2, Budget: 4, Stretch: 16}}
	nw := NewNetwork(cfg)
	defer nw.Shutdown()
	nw.SetInjector(spec.Injector())
	rrep, _ := nw.RunEpoch(nil, nil)
	if !rrep.Valid || !rrep.Connected {
		t.Fatalf("reliable epoch under drop=%g: valid=%v connected=%v failures=%v",
			drop, rrep.Valid, rrep.Connected, rrep.FailureKinds)
	}
	nonDelivery := rrep.Failures - rrep.FailureKinds[FailDelivery]
	if nonDelivery >= lrep.Failures && lrep.Failures > 0 {
		t.Fatalf("reliable layer recovered nothing: %d non-delivery failures vs legacy %d",
			nonDelivery, lrep.Failures)
	}
}
