package sampling

import (
	"reflect"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func mustLatency(t *testing.T, s string) sim.Latency {
	t.Helper()
	l, err := sim.ParseLatency(s)
	if err != nil {
		t.Fatalf("ParseLatency(%q): %v", s, err)
	}
	return l
}

// TestRapidReliableZeroSpreadIdentity: wrapping the sampler in the
// reliable endpoint on a spread-free latency model (stretch 1) must
// reproduce the legacy synchronous run exactly — samples, failures,
// work, round count — with the reliable layer contributing nothing but
// acks on the control lane.
func TestRapidReliableZeroSpreadIdentity(t *testing.T) {
	const seed, n = 7, 128
	h := hgraph.Random(rng.New(seed), n, 8)
	p := DefaultHGraphParams(n, 8)

	legacy := RapidHGraph(seed, h, p)

	pr := p
	pr.Latency = mustLatency(t, "const:1")
	pr.Reliable = reliable.On()
	rel := RapidHGraph(seed, h, pr)

	if !reflect.DeepEqual(legacy.Samples, rel.Samples) {
		t.Fatal("reliable run sampled different vertices at zero spread")
	}
	if legacy.Failures != rel.Failures || legacy.Rounds != rel.Rounds {
		t.Fatalf("failures/rounds diverged: legacy %d/%d, reliable %d/%d",
			legacy.Failures, legacy.Rounds, rel.Failures, rel.Rounds)
	}
	if legacy.TotalBits != rel.TotalBits || legacy.MaxNodeBits != rel.MaxNodeBits {
		t.Fatalf("protocol work diverged: legacy %d/%d bits, reliable %d/%d bits",
			legacy.TotalBits, legacy.MaxNodeBits, rel.TotalBits, rel.MaxNodeBits)
	}
	if rel.Retransmits != 0 || rel.DeliveryFailures != 0 {
		t.Fatalf("reliable layer not silent at zero spread: %d retransmits, %d failures",
			rel.Retransmits, rel.DeliveryFailures)
	}
}

// TestRapidReliableRecoversDrops: a drop rate that visibly breaks the
// unprotected sampler (extraction failures from lost batches) is won
// back by retransmission; the cost shows up in RapidResult.Retransmits
// instead of in Failures.
func TestRapidReliableRecoversDrops(t *testing.T) {
	const seed, n = 7, 128
	h := hgraph.Random(rng.New(seed), n, 8)
	p := DefaultHGraphParams(n, 8)
	p.Latency = mustLatency(t, "const:1")
	p.Faults = fault.Spec{Seed: seed, Drop: 0.05}

	legacy := RapidHGraph(seed, h, p)
	if legacy.Failures == 0 {
		t.Fatalf("drop=%g did not hurt the unprotected sampler; raise the rate", p.Faults.Drop)
	}

	pr := p
	pr.Reliable = reliable.Config{On: true, RTO: 3, Backoff: 2, Budget: 4, Stretch: 16}
	rel := RapidHGraph(seed, h, pr)

	if rel.Retransmits == 0 {
		t.Fatal("no retransmits under drop faults")
	}
	if rel.Failures >= legacy.Failures {
		t.Fatalf("reliable layer recovered nothing: %d failures vs legacy %d",
			rel.Failures, legacy.Failures)
	}
	// The stretched run must actually complete: every node departs with
	// its full m_T samples (guards against off-by-ones in the
	// round-stretching arithmetic, which would leave Samples nil and
	// make the failure comparison above vacuous).
	want := p.Samples()
	for v, s := range rel.Samples {
		if len(s) != want {
			t.Fatalf("node %d finished with %d samples, want %d", v, len(s), want)
		}
	}
}

// TestRapidReliableShardInvariance: the reliable sampling stack must be
// byte-identical at any shard count, including its retransmit and
// failure tallies.
func TestRapidReliableShardInvariance(t *testing.T) {
	const seed, n = 11, 128
	h := hgraph.Random(rng.New(seed), n, 8)
	base := DefaultHGraphParams(n, 8)
	base.Latency = mustLatency(t, "uniform:0.5,2.5")
	base.Faults = fault.Spec{Seed: seed, Drop: 0.05}
	base.Reliable = reliable.On()

	p1 := base
	p1.Shards = 1
	r1 := RapidHGraph(seed, h, p1)

	p4 := base
	p4.Shards = 4
	r4 := RapidHGraph(seed, h, p4)

	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("reliable sampling diverged across shard counts:\n1 shard:  %+v\n4 shards: %+v", r1, r4)
	}
}

// TestRapidRegularHonoursFaultsAndReliable: RapidRegular shares
// RapidHGraph's driver, so a lossy run must lose samples and a protected
// one must win them all back. (It used to run a perfect unprotected
// network whatever the params said.) reliable.On()'s automatic stretch
// is 1 on this spread-free model, too short for a retransmit to land
// inside its phase, so the protected run fixes a stretch that holds all
// four attempts: 3+3+3+3 < 16 rounds.
func TestRapidRegularHonoursFaultsAndReliable(t *testing.T) {
	const seed = 7
	adj := TorusAdjacency(8)
	p := HGraphParams{N: len(adj), Epsilon: 1, C: 1, WalkOverride: 16}
	clean := RapidRegular(seed, adj, p)

	p.Faults = fault.Spec{Seed: seed, Drop: 0.05}
	if lossy := RapidRegular(seed, adj, p); lossy.Failures == 0 {
		t.Fatal("drop=0.05 lost nothing: RapidRegular ignores HGraphParams.Faults")
	}

	p.Reliable = reliable.Config{On: true, RTO: 3, Backoff: 1, Budget: 4, Stretch: 16}
	rel := RapidRegular(seed, adj, p)
	if rel.Retransmits == 0 || rel.DeliveryFailures != 0 {
		t.Fatalf("protected run: %d retransmits, %d delivery failures", rel.Retransmits, rel.DeliveryFailures)
	}
	if !reflect.DeepEqual(rel.Samples, clean.Samples) {
		t.Fatal("protected lossy run does not reproduce the fault-free samples")
	}
}
