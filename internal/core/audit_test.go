package core

import (
	"math"
	"slices"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/trace"
)

// TestAuditCleanEpochsNoViolations: reconfiguration epochs with no
// faults must pass every registered invariant, including the sampling
// budget reconciliation against the kernel's bit accounting.
func TestAuditCleanEpochsNoViolations(t *testing.T) {
	nw := NewNetwork(Config{Seed: 7, N0: 128, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	rec := trace.New()
	eng := audit.NewEngine("test", 7, 1, rec)
	nw.SetAudit(eng)
	for e := 0; e < 2; e++ {
		if rep, _ := nw.RunEpoch(nil, nil); !rep.Connected || !rep.Valid {
			t.Fatalf("epoch %d unhealthy: %+v", e, rep)
		}
	}
	if eng.Count() != 0 {
		t.Fatalf("clean epochs produced %d violations: %+v", eng.Count(), rec.Events())
	}
}

// TestAuditDetectsCorruptedTopology: a deliberately broken successor
// pointer must fail the hamilton-topology checker on the next audit
// pass.
func TestAuditDetectsCorruptedTopology(t *testing.T) {
	nw := NewNetwork(Config{Seed: 7, N0: 128, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	rec := trace.New()
	eng := audit.NewEngine("test", 7, 1, rec)
	nw.SetAudit(eng)
	nw.RunEpoch(nil, nil)
	nw.corruptTopology()
	if err := nw.ValidateTopology(); err == nil {
		t.Fatal("ValidateTopology accepted a corrupted topology")
	}
	eng.RunNow(nw.net.Round())
	if eng.CountFor("hamilton-topology") == 0 {
		t.Fatalf("corrupted topology not reported (violations: %+v)", rec.Events())
	}
}

// TestRepairAfterHeavyCorruption: from a warm network hit by k
// CorruptState picks, the repair's suspect scan is empty exactly when
// ValidateTopology accepts, quarantine rewrites nothing exactly when the
// topology was legal (checked on the damaged and on the repaired
// network), and one Repair epoch leaves the hamilton-topology and
// connectivity checkers clean — at k up to 4n. The repair spreads its s
// joiners over the n − s staying sponsors: its epoch's sampling budget is
// sized for ⌈s/(n−s)⌉ joiners per sponsor, not for s.
func TestRepairAfterHeavyCorruption(t *testing.T) {
	for _, n := range []int{48, 128} {
		for _, k := range []int{1, n / 10, n, 4 * n} {
			seed := uint64(n + k)
			nw := NewNetwork(Config{Seed: seed, N0: n, D: 8, Alpha: 2, Epsilon: 1})
			rec := trace.New()
			eng := audit.NewEngine("test", seed, 1, rec)
			nw.SetAudit(eng)
			nw.RunEpoch(nil, nil)
			r := rng.New(seed)
			for i := 0; i < k; i++ {
				nw.CorruptState(r.Uint64())
			}
			legal := nw.ValidateTopology() == nil
			if suspects := nw.suspectMembers(); (len(suspects) == 0) != legal {
				t.Fatalf("n=%d k=%d: %d suspects, ValidateTopology legal=%v", n, k, len(suspects), legal)
			}
			saved := make(map[int][2][]int32, n)
			for _, id := range nw.members {
				saved[id] = [2][]int32{slices.Clone(nw.curSucc[id]), slices.Clone(nw.curPred[id])}
			}
			if fixed := nw.quarantineCycles(); (fixed == 0) != legal {
				t.Fatalf("n=%d k=%d: quarantine rewrote %d pointers, legal=%v", n, k, fixed, legal)
			}
			for id, p := range saved { // undo, so Repair sees the damage
				copy(nw.curSucc[id], p[0])
				copy(nw.curPred[id], p[1])
			}
			rep, s := nw.Repair()
			if s > 0 {
				n, nc := rep.NOld, nw.cfg.D/2
				sponsors := n - s
				busiest := (s + sponsors - 1) / sponsors // ⌈s/(n−s)⌉
				if c, want := nw.plan.params.C, float64(nc*(1+busiest)+1)/math.Log2(float64(n))+1; c != want {
					t.Fatalf("n=%d k=%d: %d joiners over %d sponsors ran at budget constant %.2f, want %.2f (at most %d per sponsor)",
						n, k, s, sponsors, c, want, busiest)
				}
			}
			for _, inv := range []string{"hamilton-topology", "connectivity"} {
				if got := eng.CountFor(inv); got != 0 {
					t.Fatalf("n=%d k=%d: %s fired after one repair: %+v", n, k, inv, rec.Events()[0])
				}
			}
			if s, q := nw.suspectMembers(), nw.quarantineCycles(); len(s) != 0 || q != 0 {
				t.Fatalf("n=%d k=%d: legal repaired topology gave %d suspects, %d rewrites", n, k, len(s), q)
			}
			nw.Shutdown()
		}
	}
}

// TestCrashRestartRejoinsViaJoinProtocol drives the §4 crash-restart
// model the way the F1 experiment does: scheduled victims leave (their
// volatile state is gone), survive RestartEpochs epochs as outsiders,
// then rejoin through the ordinary sponsor-based join path — and the
// network must stay connected and valid throughout.
func TestCrashRestartRejoinsViaJoinProtocol(t *testing.T) {
	const n = 64
	spec := fault.Spec{Seed: 13, Crash: 0.15, Restart: 1}
	nw := NewNetwork(Config{Seed: 13, N0: n, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	rec := trace.New()
	eng := audit.NewEngine("test", 13, 1, rec)
	nw.SetAudit(eng)

	crashed, rejoined := 0, 0
	pending := 0 // crashed nodes due to rejoin next epoch
	for epoch := 0; epoch < 4; epoch++ {
		members := nw.Members()
		var leaves []int
		departing := map[int]bool{}
		for _, id := range members {
			if spec.Crashes(epoch, uint64(id)) && len(members)-len(leaves) > n/2 {
				leaves = append(leaves, id)
				departing[id] = true
			}
		}
		var surv []int
		for _, id := range members {
			if !departing[id] {
				surv = append(surv, id)
			}
		}
		var joins []JoinSpec
		for i := 0; i < pending; i++ {
			joins = append(joins, JoinSpec{Sponsor: surv[i%len(surv)]})
		}
		rejoined += pending
		crashed += len(leaves)
		pending = len(leaves)
		rep, ids := nw.RunEpoch(joins, leaves)
		if !rep.Connected || !rep.Valid {
			t.Fatalf("epoch %d under crash-restart: connected=%v valid=%v", epoch, rep.Connected, rep.Valid)
		}
		if len(ids) != len(joins) {
			t.Fatalf("epoch %d: %d joiners admitted, want %d", epoch, len(ids), len(joins))
		}
	}
	if crashed == 0 || rejoined == 0 {
		t.Fatalf("crash schedule inactive: %d crashes, %d rejoins", crashed, rejoined)
	}
	if eng.Count() != 0 {
		t.Fatalf("crash-restart epochs produced %d violations: %+v", eng.Count(), rec.Events())
	}
}

// TestInjectedDropsOpenBudgetGapWithoutPanic: message loss inside the
// sampling sub-phase must degrade (reported through the audit layer,
// placement falling back) rather than crash the harness — the latent
// empty-sample panic this PR fixed.
func TestInjectedDropsOpenBudgetGapWithoutPanic(t *testing.T) {
	nw := NewNetwork(Config{Seed: 3, N0: 64, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	rec := trace.New()
	eng := audit.NewEngine("test", 3, 1, rec)
	nw.SetAudit(eng)
	nw.SetInjector(fault.Spec{Seed: 3, Drop: 0.05}.Injector())
	for e := 0; e < 2; e++ {
		nw.RunEpoch(nil, nil) // must not panic even when samples vanish
	}
	// The exact sampling-budget identity is relaxed under injection, so
	// whatever violations fire must be honest topology/connectivity
	// findings, never a spurious budget one.
	if got := eng.CountFor("sampling-budget"); got != 0 {
		t.Fatalf("sampling-budget fired %d times under injection; the ledger should account faults: %+v",
			got, rec.Events())
	}
}

// corruptTopology deliberately breaks the current topology by
// redirecting one member's cycle-0 successor pointer to itself, without
// updating the predecessor side. It exists so tests can prove the audit
// layer detects a corrupted topology within one check interval; never
// call it outside tests.
func (nw *Network) corruptTopology() {
	id := nw.members[0]
	succ := append([]int32(nil), nw.curSucc[id]...)
	succ[0] = int32(id)
	nw.curSucc[id] = succ
}
