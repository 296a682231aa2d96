package supernode

import (
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
)

// TestAuditCleanRunNoViolations: a healthy network audited every round
// must never fire an invariant.
func TestAuditCleanRunNoViolations(t *testing.T) {
	nw := New(Config{Seed: 5, N: 256, MeasureEvery: -1})
	eng := audit.NewEngine("test", 5, 1, nil)
	nw.SetAudit(eng)
	for r := 0; r < 2*nw.EpochRounds(); r++ {
		nw.Step(nil)
	}
	if eng.Count() != 0 {
		t.Fatalf("clean run produced %d violations: %+v", eng.Count(), eng.Violations())
	}
}

// TestAuditDetectsCorruptedGroup is the detection acceptance: a
// deliberately desynchronized group partition must be reported within
// one check interval of stepping the network.
func TestAuditDetectsCorruptedGroup(t *testing.T) {
	const every = 3
	nw := New(Config{Seed: 5, N: 256, MeasureEvery: -1})
	eng := audit.NewEngine("test", 5, every, nil)
	nw.SetAudit(eng)
	nw.corruptGroup()
	for r := 0; r < every; r++ {
		nw.Step(nil)
	}
	if eng.CountFor("supernode-groups") == 0 {
		t.Fatalf("corrupted group partition not reported within %d rounds (violations: %+v)",
			every, eng.Violations())
	}
	v := eng.Violations()[0]
	if v.Scope != "test" || v.Seed != 5 || len(v.Nodes) == 0 {
		t.Fatalf("violation missing context: %+v", v)
	}
}

// TestCrashRestartCycle: with a crash schedule attached, nodes crash
// (counted once per outage), stay unresponsive for RestartEpochs
// epochs, and come back — and the audited invariants survive because a
// crashed node is treated exactly like a paper-blocked one.
func TestCrashRestartCycle(t *testing.T) {
	nw := New(Config{Seed: 7, N: 256, MeasureEvery: -1})
	eng := audit.NewEngine("test", 7, 1, nil)
	nw.SetAudit(eng)
	nw.SetFaults(fault.Spec{Seed: 7, Crash: 0.1, Restart: 2})
	for r := 0; r < 4*nw.EpochRounds(); r++ {
		nw.Step(nil)
	}
	st := nw.StatsSnapshot()
	if st.Crashes == 0 {
		t.Fatal("crash schedule at rate 0.1 produced no crashes over 4 epochs")
	}
	if st.Restarts == 0 {
		t.Fatal("no crashed node ever restarted")
	}
	if got := eng.CountFor("supernode-groups"); got != 0 {
		t.Fatalf("crash-restart broke the group partition %d times: %+v", got, eng.Violations())
	}
}

// TestFaultedRunDeterministic: same seed, same fault spec, two runs —
// identical stats. The injected queue faults and crash schedule are
// pure functions of identity, not of scheduling.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() Stats {
		nw := New(Config{Seed: 11, N: 256, MeasureEvery: -1})
		nw.SetFaults(fault.Spec{Seed: 11, Drop: 0.02, Dup: 0.01, Crash: 0.05})
		for r := 0; r < 2*nw.EpochRounds(); r++ {
			nw.Step(nil)
		}
		return nw.StatsSnapshot()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical faulted runs diverged:\n%+v\n%+v", a, b)
	}
	if a.FaultDrops == 0 || a.FaultDups == 0 {
		t.Fatalf("fault injection inactive: %+v", a)
	}
}

// corruptGroup deliberately desynchronizes the group partition
// (one node's nodeGroup pointer stops matching its group) so tests can
// prove the audit layer reports it within one check interval. Never
// call it outside tests.
func (nw *Network) corruptGroup() {
	for x, g := range nw.groups {
		if len(g) > 0 {
			v := int(g[0]) - 1
			nw.eng.NodeGroup[v] = int32((x + 1) % nw.nSuper)
			return
		}
	}
}
