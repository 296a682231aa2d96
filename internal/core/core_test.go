package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"overlaynet/internal/audit"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/trace"
)

func TestReconfigureRefValid(t *testing.T) {
	f := func(seed uint64, nRaw, joinRaw uint8) bool {
		n := int(nRaw%50) + 5
		r := rng.New(seed)
		old := hgraph.RandomCycle(r, n)
		// Place all old vertices plus a few joiners with fresh ids.
		placed := make([]int, 0, n+int(joinRaw%5))
		for v := 0; v < n; v++ {
			placed = append(placed, v)
		}
		for j := 0; j < int(joinRaw%5); j++ {
			placed = append(placed, n+j)
		}
		rc, err := ReconfigureRef(r, old, placed)
		if err != nil {
			return false
		}
		return rc.Validate(placed) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureRefLeaversExcluded(t *testing.T) {
	r := rng.New(1)
	old := hgraph.RandomCycle(r, 10)
	// Only vertices 0..4 stay.
	placed := []int{0, 1, 2, 3, 4}
	rc, err := ReconfigureRef(r, old, placed)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Validate(placed); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []int{5, 6, 7, 8, 9} {
		if _, ok := rc.Succ[gone]; ok {
			t.Fatalf("leaver %d appears in new cycle", gone)
		}
	}
}

func TestReconfigureRefTooFewPlaced(t *testing.T) {
	r := rng.New(2)
	old := hgraph.RandomCycle(r, 5)
	if _, err := ReconfigureRef(r, old, []int{0, 1}); err == nil {
		t.Fatal("accepted 2 placed ids")
	}
}

func TestReconfigureRefUniformSuccessor(t *testing.T) {
	// Lemma 10: the new cycle is uniform, so succ(0) is uniform over
	// the other placed ids.
	r := rng.New(3)
	const n, trials = 6, 60000
	old := hgraph.RandomCycle(r, n)
	placed := []int{0, 1, 2, 3, 4, 5}
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		rc, err := ReconfigureRef(r, old, placed)
		if err != nil {
			t.Fatal(err)
		}
		counts[rc.Succ[0]]++
	}
	if counts[0] != 0 {
		t.Fatal("succ(0) = 0 impossible")
	}
	expected := float64(trials) / float64(n-1)
	for v := 1; v < n; v++ {
		if math.Abs(float64(counts[v])-expected) > 6*math.Sqrt(expected) {
			t.Fatalf("succ(0)=%d count %d far from %.0f: %v", v, counts[v], expected, counts)
		}
	}
}

// TestNetworkStaticEpoch: one churn-free epoch is healthy
// (checkEpochHealthy: a sampling refusal, which some seeds see, is the
// only failure allowed) and its congestion stays within the polylog
// envelopes of Lemmas 11 and 12.
func TestNetworkStaticEpoch(t *testing.T) {
	nw := NewNetwork(Config{Seed: 1, N0: 64, D: 8})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	rep, joiners := nw.RunEpoch(nil, nil)
	if len(joiners) != 0 {
		t.Fatal("no joiners requested")
	}
	checkEpochHealthy(t, nw, rec, rep)
	if rep.NOld != 64 || rep.NNew != 64 {
		t.Fatalf("sizes %d -> %d", rep.NOld, rep.NNew)
	}
	if rep.MaxChosen <= 0 {
		t.Fatal("congestion not measured")
	}
	// Lemma 11/12 envelopes (generous polylog).
	env := metrics.PolylogEnvelope(64, 2, 4)
	if float64(rep.MaxChosen) > env {
		t.Fatalf("MaxChosen %d exceeds polylog envelope %.0f", rep.MaxChosen, env)
	}
	if float64(rep.MaxEmptySegment) > env {
		t.Fatalf("MaxEmptySegment %d exceeds polylog envelope %.0f", rep.MaxEmptySegment, env)
	}
}

// TestNetworkMultipleEpochs checks what holds at every seed over five
// epochs at N0 = 48, D = 6: each epoch Valid and Connected, every audit
// checker clean, and every failure a sampling refusal that the budget
// tally counts. About half the network seeds see a refusal here (this
// one in its third epoch), so none is asserted absent.
func TestNetworkMultipleEpochs(t *testing.T) {
	nw := NewNetwork(Config{Seed: 2, N0: 48, D: 6})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	for e := 0; e < 5; e++ {
		rep, _ := nw.RunEpoch(nil, nil)
		checkEpochHealthy(t, nw, rec, rep)
	}
}

// checkEpochHealthy asserts what holds after an epoch at every seed: the
// attached audit engine saw no violation, the new topology is valid and
// connected, and every failure is a sampling refusal the epoch's budget
// tally counted. How often refusals occur at all is a matter of the
// seed, so that is left to the sampler's law tests.
func checkEpochHealthy(t *testing.T, nw *Network, rec *trace.Recorder, rep EpochReport) {
	t.Helper()
	refused := nw.lastWindow.budget.Refused
	if !rep.Valid || !rep.Connected || rep.Failures != rep.FailureKinds[FailSampling] || int64(rep.Failures) != refused {
		t.Fatalf("epoch %d, budget tally refused %d: %+v", rep.Epoch, refused, rep)
	}
	if evs := rec.Events(); len(evs) != 0 {
		t.Fatalf("%d audit violations: %+v", len(evs), evs)
	}
}

func TestNetworkJoin(t *testing.T) {
	nw := NewNetwork(Config{Seed: 3, N0: 32, D: 6})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	joins := []JoinSpec{{Sponsor: 0}, {Sponsor: 0}, {Sponsor: 5}}
	rep, ids := nw.RunEpoch(joins, nil)
	checkEpochHealthy(t, nw, rec, rep)
	if len(ids) != 3 {
		t.Fatalf("got %d joiner ids", len(ids))
	}
	if rep.NNew != 35 {
		t.Fatalf("NNew = %d, want 35", rep.NNew)
	}
	if nw.N() != 35 {
		t.Fatalf("member count %d", nw.N())
	}
	// Joiners must appear in the member list.
	found := 0
	for _, m := range nw.Members() {
		for _, id := range ids {
			if m == id {
				found++
			}
		}
	}
	if found != 3 {
		t.Fatalf("only %d joiners in member list", found)
	}
}

func TestNetworkLeave(t *testing.T) {
	nw := NewNetwork(Config{Seed: 4, N0: 32, D: 6})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	rep, _ := nw.RunEpoch(nil, []int{3, 17, 31})
	checkEpochHealthy(t, nw, rec, rep)
	if rep.NNew != 29 {
		t.Fatalf("NNew = %d, want 29", rep.NNew)
	}
	for _, m := range nw.Members() {
		if m == 3 || m == 17 || m == 31 {
			t.Fatalf("leaver %d still a member", m)
		}
	}
}

func TestNetworkChurnBothWays(t *testing.T) {
	// Constant churn rate: every epoch ~1/4 of the nodes leave and the
	// same number join; every epoch is healthy and the size holds
	// (Theorem 5).
	nw := NewNetwork(Config{Seed: 5, N0: 64, D: 6})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	r := rng.New(99)
	for e := 0; e < 6; e++ {
		members := nw.Members()
		n := len(members)
		churn := n / 4
		leaving := map[int]bool{}
		var leaves []int
		for len(leaves) < churn {
			id := members[r.Intn(n)]
			if !leaving[id] {
				leaving[id] = true
				leaves = append(leaves, id)
			}
		}
		var joins []JoinSpec
		for len(joins) < churn {
			s := members[r.Intn(n)]
			if !leaving[s] {
				joins = append(joins, JoinSpec{Sponsor: s})
			}
		}
		rep, _ := nw.RunEpoch(joins, leaves)
		checkEpochHealthy(t, nw, rec, rep)
		if rep.NNew != n {
			t.Fatalf("epoch %d size drifted: %d -> %d", e, n, rep.NNew)
		}
	}
}

func TestNetworkGrowthAndShrink(t *testing.T) {
	nw := NewNetwork(Config{Seed: 6, N0: 24, D: 6})
	defer nw.Shutdown()
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	// Double the network, then halve it.
	var joins []JoinSpec
	for i := 0; i < 24; i++ {
		joins = append(joins, JoinSpec{Sponsor: nw.Members()[i%12]})
	}
	rep, _ := nw.RunEpoch(joins, nil)
	checkEpochHealthy(t, nw, rec, rep)
	if rep.NNew != 48 {
		t.Fatalf("growth epoch: %+v", rep)
	}
	members := nw.Members()
	leaves := append([]int(nil), members[:24]...)
	rep, _ = nw.RunEpoch(nil, leaves)
	checkEpochHealthy(t, nw, rec, rep)
	if rep.NNew != 24 {
		t.Fatalf("shrink epoch: %+v", rep)
	}
}

func TestNetworkDeterministic(t *testing.T) {
	run := func() []int32 {
		nw := NewNetwork(Config{Seed: 7, N0: 32, D: 6})
		defer nw.Shutdown()
		nw.RunEpoch(nil, nil)
		var out []int32
		for _, id := range nw.Members() {
			out = append(out, nw.curSucc[id]...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("topology diverged at %d", i)
		}
	}
}

func TestNetworkExpansion(t *testing.T) {
	nw := NewNetwork(Config{Seed: 8, N0: 128, D: 8})
	defer nw.Shutdown()
	nw.RunEpoch(nil, nil)
	lambda2 := nw.BuildGraph().SecondEigenvalue(rng.New(8), 100)
	if lambda2 <= 0 {
		t.Fatal("expansion not measured")
	}
	// Corollary 1: |λ₂| ≤ 2√d w.h.p.
	if lambda2 > 2*math.Sqrt(8) {
		t.Fatalf("second eigenvalue %.3f too large", lambda2)
	}
}

func TestNetworkDistributedMatchesReferenceDistribution(t *testing.T) {
	// The distributed protocol and the centralized reference must
	// produce the same (uniform) cycle distribution. We compare the
	// distribution of node 0's successor in cycle 0 over many
	// independent single-epoch runs against uniformity.
	const n, trials = 12, 400
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		nw := NewNetwork(Config{Seed: uint64(1000 + i), N0: n, D: 6})
		rep, _ := nw.RunEpoch(nil, nil)
		if !rep.Valid {
			t.Fatalf("trial %d invalid", i)
		}
		counts[int(nw.curSucc[0][0])]++
		nw.Shutdown()
	}
	if counts[0] != 0 {
		t.Fatal("node 0 its own successor")
	}
	// Chi-square over the n−1 possible successors; df = 10,
	// 99.9% quantile ≈ 29.6.
	chi2 := metrics.ChiSquareUniform(counts[1:])
	if chi2 > 29.6 {
		t.Fatalf("distributed successor distribution not uniform: chi2 = %.1f, counts %v", chi2, counts)
	}
}

func TestEpochRoundsIsLogLog(t *testing.T) {
	// Rounds per epoch must grow like log log n: doubling n adds O(1).
	prev := 0
	for _, n := range []int{256, 65536, 1 << 20} {
		params := sampling.HGraphParams{N: n, D: 8, Alpha: 2.5, Epsilon: 1, C: 4}
		rounds := EpochRounds(params.T(), doublingSteps(n))
		if prev > 0 && rounds > prev+6 {
			t.Fatalf("rounds grew too fast: %d -> %d for n=%d", prev, rounds, n)
		}
		prev = rounds
	}
	if prev > 40 {
		t.Fatalf("epoch rounds %d at n=2^20 not O(log log n)-like", prev)
	}
}

func TestNetworkBadInputsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("tiny N0", func() { NewNetwork(Config{Seed: 1, N0: 4, D: 6}) })
	mustPanic("odd D", func() { NewNetwork(Config{Seed: 1, N0: 16, D: 7}) })
	nw := NewNetwork(Config{Seed: 1, N0: 16, D: 6})
	defer nw.Shutdown()
	mustPanic("unknown leaver", func() { nw.RunEpoch(nil, []int{999}) })
	mustPanic("bad sponsor", func() { nw.RunEpoch([]JoinSpec{{Sponsor: 999}}, nil) })
}

// TestValidateRejectsNonFinite: a NaN or infinite constant must fail
// Validate. Past it, NewNetwork makes a slice of impossible length on a
// NaN epsilon, and a NaN or infinite alpha runs without complaint.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"Epsilon=NaN", Config{N0: 64, D: 8, Epsilon: nan}},
		{"Epsilon=+Inf", Config{N0: 64, D: 8, Epsilon: inf}},
		{"Alpha=NaN", Config{N0: 64, D: 8, Alpha: nan}},
		{"Alpha=+Inf", Config{N0: 64, D: 8, Alpha: inf}},
	} {
		if err := c.cfg.Validate(); err == nil || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s: Validate() = %v, want an error saying the value must be finite", c.name, err)
		}
	}
}
