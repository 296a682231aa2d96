package audit

import (
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

type sliceReporter struct{ got []Violation }

func (r *sliceReporter) ReportViolation(v Violation) { r.got = append(r.got, v) }

// TestEngineNilReceiverSafe pins the zero-cost observer contract: every
// method must be callable on a nil *Engine, so drivers hold a
// possibly-nil engine and never branch.
func TestEngineNilReceiverSafe(t *testing.T) {
	var e *Engine
	e.Register("x", func() []Violation { return nil })
	e.SetEpoch(3)
	e.Tick(1)
	e.RunNow(1)
	e.Report(Violation{Invariant: "x"})
	e.ReportViolation(Violation{Invariant: "x"})
	if e.Count() != 0 || e.CountFor("x") != 0 || !e.Passed("x") {
		t.Fatal("nil engine reported nonzero state")
	}
	if e.Violations() != nil || e.Invariants() != nil {
		t.Fatal("nil engine returned non-nil slices")
	}
}

func TestEngineCadence(t *testing.T) {
	runs := 0
	e := NewEngine("s", 1, 3, nil)
	e.Register("check", func() []Violation { runs++; return nil })
	for round := 1; round <= 9; round++ {
		e.Tick(round)
	}
	if runs != 3 {
		t.Fatalf("every=3 over 9 ticks ran the checker %d times, want 3", runs)
	}
	// every <= 0 normalizes to every tick.
	runs = 0
	e2 := NewEngine("s", 1, 0, nil)
	e2.Register("check", func() []Violation { runs++; return nil })
	for round := 1; round <= 4; round++ {
		e2.Tick(round)
	}
	if runs != 4 {
		t.Fatalf("every=0 over 4 ticks ran the checker %d times, want 4", runs)
	}
}

// TestEngineStamping: the engine fills Scope, Seed, Round, Epoch, and
// the checker's registered name onto violations, and forwards them to
// the reporter.
func TestEngineStamping(t *testing.T) {
	rep := &sliceReporter{}
	e := NewEngine("E6/cell2", 77, 1, rep)
	e.Register("connectivity", func() []Violation {
		return []Violation{{Detail: "component of 3"}}
	})
	e.SetEpoch(5)
	e.Tick(12)
	if len(rep.got) != 1 {
		t.Fatalf("reporter got %d violations, want 1", len(rep.got))
	}
	v := rep.got[0]
	if v.Invariant != "connectivity" || v.Scope != "E6/cell2" || v.Seed != 77 ||
		v.Round != 12 || v.Epoch != 5 || v.Detail != "component of 3" {
		t.Fatalf("stamped violation = %+v", v)
	}
	if e.Count() != 1 || e.CountFor("connectivity") != 1 || e.Passed("connectivity") {
		t.Fatal("engine counters disagree with the report")
	}
	if e.Passed("connectivity") || !e.Passed("never-registered") {
		t.Fatal("Passed() wrong")
	}
}

func TestEngineRetentionCap(t *testing.T) {
	e := NewEngine("s", 1, 1, nil)
	for i := 0; i < maxRetained+100; i++ {
		e.Report(Violation{Invariant: "hot"})
	}
	if e.Count() != maxRetained+100 {
		t.Fatalf("Count() = %d, want %d", e.Count(), maxRetained+100)
	}
	if got := len(e.Violations()); got != maxRetained {
		t.Fatalf("retained %d violations, want cap %d", got, maxRetained)
	}
}

func TestEngineInvariantsSorted(t *testing.T) {
	e := NewEngine("s", 1, 1, nil)
	e.Register("zeta", func() []Violation { return nil })
	e.Register("alpha", func() []Violation { return nil })
	e.Report(Violation{Invariant: "mid"})
	got := e.Invariants()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Invariants() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Invariants() = %v, want %v", got, want)
		}
	}
}

// statsTap is a bare auditor that also keeps the last RoundStats the
// kernel handed it.
type statsTap struct {
	*WorkAuditor
	last sim.RoundStats
}

func (s *statsTap) RoundEnd(stats sim.RoundStats) {
	s.last = stats
	s.WorkAuditor.RoundEnd(stats)
}

// workloadRun drives a real simulator network through a uniform all-send
// workload with an optional injector and a WorkAuditor attached,
// returning the auditor. With every node alive and unblocked the ledger
// must balance exactly — deliveries reconcile against sends minus
// injected drops plus duplicated extras.
func workloadRun(t *testing.T, inj sim.Injector) *WorkAuditor {
	t.Helper()
	rep := &sliceReporter{}
	a := NewWorkAuditor(rep, nil)
	tap := &statsTap{WorkAuditor: a}
	net := sim.NewNetwork(sim.Config{Seed: 5})
	net.SetTracer(tap)
	if inj != nil {
		net.SetInjector(inj)
	}
	const n, rounds = 32, 10
	flood := sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		for j := 0; j < 3; j++ {
			ctx.Send(sim.NodeID((int(ctx.ID())+j*7)%n+1), j, 16)
		}
		return true
	})
	for i := 0; i < n; i++ {
		net.SpawnHandler(sim.NodeID(i+1), flood)
	}
	net.Run(rounds)
	net.Shutdown()
	if a.Checked() == 0 {
		t.Fatal("auditor checked no rounds")
	}
	if a.Mismatches() != 0 {
		t.Fatalf("work ledger mismatched %d rounds: %+v", a.Mismatches(), rep.got)
	}
	// Wrapping no consumer, the auditor asks for no percentiles: the
	// kernel skipped the sort and the ledger balanced on Delivered alone.
	if st := tap.last; st.Delivered == 0 || st.InboxP50 != 0 || st.InboxMax != 0 || st.BitsP95 != 0 || st.BitsMax != 0 {
		t.Fatalf("bare auditor's RoundEnd saw %+v, want Delivered > 0 and zero percentiles", st)
	}
	return a
}

// TestWorkAuditorCleanRun: no faults, ledger balances.
func TestWorkAuditorCleanRun(t *testing.T) {
	workloadRun(t, nil)
}

// TestWorkAuditorUnderInjectedFaults: the ledger must still balance
// when the injector drops and duplicates messages, because the fault
// events enter the ledger through MessageDropped/MessageDuplicated.
func TestWorkAuditorUnderInjectedFaults(t *testing.T) {
	spec := fault.Spec{Seed: 9, Drop: 0.1, Dup: 0.05}
	workloadRun(t, spec.Injector())
}

// TestWorkAuditorDetectsImbalance drives the hooks directly with a
// fabricated history whose delivery count cannot be reconciled, and
// expects exactly one work-conservation violation.
func TestWorkAuditorDetectsImbalance(t *testing.T) {
	rep := &sliceReporter{}
	a := NewWorkAuditor(rep, nil)
	stats := func(round, msgs int, delivered int64) sim.RoundStats {
		s := sim.RoundStats{Round: round, Alive: 10, Delivered: delivered}
		s.Work.Round = round
		s.Work.Messages = msgs
		return s
	}
	a.RoundStart(1, 10, 0)
	a.RoundEnd(stats(1, 5, 0))
	a.RoundStart(2, 10, 0)
	a.RoundEnd(stats(2, 5, 5)) // 5 sent, 5 delivered: balanced
	a.RoundStart(3, 10, 0)
	a.RoundEnd(stats(3, 5, 9)) // 9 delivered out of 5 sent: impossible
	if a.Mismatches() != 1 || len(rep.got) != 1 {
		t.Fatalf("mismatches=%d reports=%d, want 1/1", a.Mismatches(), len(rep.got))
	}
	if rep.got[0].Invariant != "work-conservation" {
		t.Fatalf("violation = %+v", rep.got[0])
	}
	// A shortfall without departures is also a violation…
	a.RoundStart(4, 10, 0)
	a.RoundEnd(stats(4, 5, 2))
	if a.Mismatches() != 2 {
		t.Fatalf("shortfall without departures not reported (mismatches=%d)", a.Mismatches())
	}
	// …but with a departure in between it is absorbed silently.
	a.NodeSpawned(4, 11)
	a.RoundStart(5, 10, 0) // 10+1 spawned − 10 alive ⇒ one departure
	a.RoundEnd(stats(5, 5, 2))
	if a.Mismatches() != 2 {
		t.Fatalf("shortfall with a departure was reported (mismatches=%d)", a.Mismatches())
	}
}
