package splitmerge

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// driveDigest runs a fixed adversarial schedule — DoS blocking, message
// drop/dup faults, a crash schedule, and churn — and fingerprints every
// observable output: each round's report, the final stats, the label
// tree, and the group partition. Any execution-order leak in the
// sharded round pipeline shows up as a digest mismatch.
func driveDigest(shards int, withAudit, withFaults bool) string {
	nw := New(Config{Seed: 42, N0: 2048, MeasureEvery: 2, Shards: shards})
	defer nw.Close()
	if withAudit {
		nw.SetAudit(audit.NewEngine("scale-identity", 9, 3, nil))
	}
	if withFaults {
		nw.SetFaults(fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.02, Restart: 2})
	}
	adv := &dos.Random{Fraction: 0.1, R: rng.New(7), IDs: nw.Members}
	buf := &dos.Buffer{Lateness: 2}
	churn := rng.New(99)
	var b strings.Builder
	for e := 0; e < 3; e++ {
		members := nw.Members()
		for k := 0; k < 16; k++ {
			nw.Join(members[churn.Intn(len(members))])
		}
		for k := 0; k < 16; k++ {
			id := members[churn.Intn(len(members))]
			if nw.superOf(id) >= 0 {
				nw.Leave(id)
			}
		}
		for _, rep := range nw.Run(adv, buf, nw.EpochRounds()) {
			fmt.Fprintf(&b, "%+v\n", rep)
		}
	}
	fmt.Fprintf(&b, "%+v\n%v\n%v\n", nw.StatsSnapshot(), nw.Labels(), nw.GroupSizes())
	return b.String()
}

// TestByteIdenticalAcrossShards pins the §6 determinism contract: the
// sharded round pipeline must reproduce the serial execution exactly —
// same RNG draws, same queue orders, same fault-injection tuples, same
// split/merge decisions — at any worker count, with or without the
// audit attached.
func TestByteIdenticalAcrossShards(t *testing.T) {
	want := driveDigest(1, false, true)
	for _, shards := range []int{2, 8} {
		if got := driveDigest(shards, false, true); got != want {
			t.Fatalf("shards=%d diverges from the serial execution", shards)
		}
	}
	if got := driveDigest(4, true, true); got != want {
		t.Fatal("attaching audit perturbed the results")
	}
	// Without a gate no marking pass runs; the DoS adversary still
	// forces leaderless rounds, exercising the queue-clearing prepass.
	plain := driveDigest(1, false, false)
	if got := driveDigest(8, false, false); got != plain {
		t.Fatal("shards=8 diverges from the serial execution without a gate")
	}
}

// gateDigest fingerprints a run under one delivery-gate configuration
// (see supernode's gateDigest) for the shards × faults × latency ×
// audit byte-identity matrix.
func gateDigest(shards int, withAudit bool, spec fault.Spec, lat sim.Latency, corrupt bool) string {
	nw := New(Config{Seed: 42, N0: 1024, MeasureEvery: 2, Shards: shards})
	defer nw.Close()
	if withAudit {
		nw.SetAudit(audit.NewEngine("gate-identity", 9, 3, nil))
	}
	nw.SetFaults(spec)
	nw.SetLatency(lat)
	adv := &dos.Random{Fraction: 0.1, R: rng.New(7), IDs: nw.Members}
	buf := &dos.Buffer{Lateness: 2}
	var b strings.Builder
	for _, rep := range nw.Run(adv, buf, nw.EpochRounds()+3) {
		fmt.Fprintf(&b, "%+v\n", rep)
	}
	if corrupt {
		fmt.Fprintf(&b, "corrupt: %s\n", nw.CorruptState(12345))
	}
	for _, rep := range nw.Run(adv, buf, nw.EpochRounds()) {
		fmt.Fprintf(&b, "%+v\n", rep)
	}
	fmt.Fprintf(&b, "%+v\n%v\n%v\n", nw.StatsSnapshot(), nw.Labels(), nw.GroupSizes())
	return b.String()
}

// TestGateMatrix mirrors the supernode matrix: every gate axis compared
// across single-worker and shards=8, with and without audit,
// plus §6-level sync-equivalence of the zero-spread latency model.
func TestGateMatrix(t *testing.T) {
	uni := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2}
	cases := []struct {
		name    string
		spec    fault.Spec
		lat     sim.Latency
		corrupt bool
	}{
		{name: "partition-only", spec: fault.Spec{Seed: 11, PartK: 2, PartFrom: 5, PartWin: 6}},
		{name: "dropdup-only", spec: fault.Spec{Seed: 11, Drop: 0.03, Dup: 0.02}},
		{name: "latency-only", lat: uni},
		{name: "latency+faults", spec: fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01}, lat: uni},
		{name: "corrupt-no-gate", corrupt: true},
	}
	for _, c := range cases {
		want := gateDigest(1, false, c.spec, c.lat, c.corrupt)
		if got := gateDigest(8, false, c.spec, c.lat, c.corrupt); got != want {
			t.Fatalf("%s: shards=8 diverges from the single-worker execution", c.name)
		}
		if got := gateDigest(4, true, c.spec, c.lat, c.corrupt); got != want {
			t.Fatalf("%s: attaching audit perturbed the results", c.name)
		}
	}
	base := gateDigest(1, false, fault.Spec{}, sim.Latency{}, false)
	zero := sim.Latency{Kind: sim.LatencyConst, A: 1}
	if got := gateDigest(1, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the single-worker bytes")
	}
	if got := gateDigest(8, false, fault.Spec{}, zero, false); got != base {
		t.Fatal("const:1 latency changed the shards=8 bytes")
	}
	if got := gateDigest(1, false, fault.Spec{}, uni, false); got == base {
		t.Fatal("latency gate with spread had no observable effect")
	}
}

// TestBlockedMapNotAliased verifies Step copies the caller's blocked
// map into owned storage: mutating or reusing the map after Step
// returns must not rewrite the two-round blocked history it feeds.
func TestBlockedMapNotAliased(t *testing.T) {
	run := func(reuse bool) string {
		nw := New(Config{Seed: 5, N0: 512, MeasureEvery: 1})
		defer nw.Close()
		m := map[sim.NodeID]bool{}
		var b strings.Builder
		for i := 0; i < 2*nw.EpochRounds(); i++ {
			if reuse {
				clear(m)
			} else {
				m = map[sim.NodeID]bool{}
			}
			for k := 0; k < 5; k++ {
				m[sim.NodeID((i*7+k*13)%512+1)] = true
			}
			fmt.Fprintf(&b, "%+v\n", nw.Step(m))
			if reuse {
				// Poison the map after Step: with an aliased
				// blockedHist[0] this rewrites the round's history.
				for k := range m {
					m[k] = false
				}
				m[sim.NodeID(i%512+1)] = true
			}
		}
		fmt.Fprintf(&b, "%+v", nw.StatsSnapshot())
		return b.String()
	}
	if run(false) != run(true) {
		t.Fatal("Step aliases the caller's blocked map; blockedHist must own its storage")
	}
}

// TestStepAllocsSteadyState is the allocation regression gate for the
// §6 Step path: once every arena has reached its high-water mark, no
// round may allocate except the assign phase (scratch plateau growth)
// and the commit phase (organic splits/merges clone group state, as
// the serial code did).
func TestStepAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race: the race runtime allocates on its own")
	}
	nw := New(Config{Seed: 1, N0: 10000, MeasureEvery: -1})
	defer nw.Close()
	for i := 0; i < 6*nw.EpochRounds(); i++ {
		nw.Step(nil)
	}
	samplingRounds := nw.samplingRounds()
	var m0, m1 runtime.MemStats
	type badRound struct {
		round, phase int
		mallocs      uint64
	}
	var bad []badRound
	for i := 0; i < 2*nw.EpochRounds(); i++ {
		phase := nw.phase
		runtime.ReadMemStats(&m0)
		nw.Step(nil)
		runtime.ReadMemStats(&m1)
		if d := m1.Mallocs - m0.Mallocs; d > 0 && phase != samplingRounds && phase != samplingRounds+5 {
			bad = append(bad, badRound{nw.Round(), phase, d})
		}
	}
	for _, r := range bad {
		t.Errorf("round %d (phase %d) allocated %d objects in steady state", r.round, r.phase, r.mallocs)
	}
}

// TestUnevenShards covers what the per-worker queue segments add over
// the identity tests above (shards 2, 4, 8 at n >= 1024): worker counts
// that do not divide the supernode or virtual-vertex count, and more
// workers than supernodes, so that some own an empty range — with and
// without a gate and a crash schedule, under an adversary fresh enough
// to stall groups, while a quarter of the network joins every epoch.
func TestUnevenShards(t *testing.T) {
	run := func(n, shards int, spec fault.Spec) string {
		nw := New(Config{Seed: 42, N0: n, MeasureEvery: 2, Shards: shards})
		defer nw.Close()
		nw.SetFaults(spec)
		adv := &dos.GroupIsolate{Fraction: 0.3, R: rng.New(7)}
		buf := &dos.Buffer{Lateness: 1}
		joins := rng.New(99)
		var b strings.Builder
		for e := 0; e < 3; e++ {
			members := nw.Members()
			for k := 0; k < len(members)/4; k++ {
				nw.Join(members[joins.Intn(len(members))])
			}
			for _, rep := range nw.Run(adv, buf, nw.EpochRounds()) {
				fmt.Fprintf(&b, "%+v\n", rep)
				nw.roundState(&b)
			}
		}
		fmt.Fprintf(&b, "%+v\n%v\n%v\n", nw.StatsSnapshot(), nw.Labels(), nw.Members())
		return b.String()
	}
	for _, n := range []int{64, 100, 300} {
		for _, spec := range []fault.Spec{{}, {Seed: 11, Drop: 0.05, Dup: 0.05, Crash: 0.05}} {
			want := run(n, 1, spec)
			for _, shards := range []int{3, 7, 64} {
				if got := run(n, shards, spec); got != want {
					t.Errorf("n=%d faults=%q: shards=%d diverges from the serial execution", n, spec, shards)
				}
			}
		}
	}
}
