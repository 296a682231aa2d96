package splitmerge

import (
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/trace"
)

// TestAuditCleanRunNoViolations: a healthy §6 network audited every
// round over two epochs must never fire an invariant.
func TestAuditCleanRunNoViolations(t *testing.T) {
	nw := New(Config{Seed: 5, N0: 256, MeasureEvery: -1})
	rec := trace.New()
	eng := audit.NewEngine("test", 5, 1, rec)
	nw.SetAudit(eng)
	for r := 0; r < 2*nw.EpochRounds(); r++ {
		nw.Step(nil)
	}
	if eng.Count() != 0 {
		t.Fatalf("clean run produced %d violations: %+v", eng.Count(), rec.Events())
	}
}

// TestAuditDetectsCorruptedMembership: a deliberately desynchronized
// membership index must be reported within one check interval.
func TestAuditDetectsCorruptedMembership(t *testing.T) {
	const every = 3
	nw := New(Config{Seed: 5, N0: 256, MeasureEvery: -1})
	rec := trace.New()
	eng := audit.NewEngine("test", 5, every, rec)
	nw.SetAudit(eng)
	nw.corruptGroup()
	for r := 0; r < every; r++ {
		nw.Step(nil)
	}
	if eng.CountFor("membership") == 0 {
		t.Fatalf("corrupted membership index not reported within %d rounds (violations: %+v)",
			every, rec.Events())
	}
}

// TestCrashRestartKeepsInvariants: the crash schedule composes into the
// blocked set, so the group invariants (Equation (1), dimension spread,
// membership) must survive nodes going down and coming back.
func TestCrashRestartKeepsInvariants(t *testing.T) {
	nw := New(Config{Seed: 7, N0: 256, MeasureEvery: -1})
	rec := trace.New()
	eng := audit.NewEngine("test", 7, 1, rec)
	nw.SetAudit(eng)
	nw.SetFaults(fault.Spec{Seed: 7, Crash: 0.1, Restart: 2})
	for r := 0; r < 4*nw.EpochRounds(); r++ {
		nw.Step(nil)
	}
	st := nw.StatsSnapshot()
	if st.Crashes == 0 || st.Restarts == 0 {
		t.Fatalf("crash schedule inactive: %+v", st)
	}
	for _, inv := range []string{"eq1-group-size", "dim-spread", "membership"} {
		if got := eng.CountFor(inv); got != 0 {
			t.Fatalf("crash-restart violated %s %d times: %+v", inv, got, rec.Events())
		}
	}
}

// TestFaultedRunDeterministic: identical seeds and fault specs give
// bit-identical stats — queue-level injection and the crash schedule
// are pure functions of identity.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() Stats {
		nw := New(Config{Seed: 11, N0: 256, MeasureEvery: -1})
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

// corruptGroup deliberately desynchronizes the membership index
// for the first committed member, so tests can verify the audit engine
// reports the inconsistency within its check cadence.
func (nw *Network) corruptGroup() {
	for x, s := range nw.supers {
		if len(s.members) > 0 {
			nw.eng.NodeGroup[s.members[0]-1] = int32((x + 1) % len(nw.supers))
			return
		}
	}
}
