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
	e.ReportViolation(Violation{Invariant: "x"})
	e.ReportViolation(Violation{Invariant: "x"})
	if e.Count() != 0 || e.CountFor("x") != 0 {
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
	if e.Count() != 1 || e.CountFor("connectivity") != 1 {
		t.Fatal("engine counters disagree with the report")
	}
	if e.CountFor("never-registered") != 0 {
		t.Fatal("an invariant never reported has a count")
	}
}

func TestEngineRetentionCap(t *testing.T) {
	e := NewEngine("s", 1, 1, nil)
	for i := 0; i < maxRetained+100; i++ {
		e.ReportViolation(Violation{Invariant: "hot"})
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
	e.ReportViolation(Violation{Invariant: "mid"})
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
// kernel handed it and counts the dead-receiver drops.
type statsTap struct {
	*WorkAuditor
	last sim.RoundStats
	dead int
}

func (s *statsTap) RoundEnd(stats sim.RoundStats) {
	s.last = stats
	s.dead += stats.Dropped[sim.DropDeadReceiver]
	s.WorkAuditor.RoundEnd(stats)
}

// workloadRun drives a real simulator network through a uniform all-send
// workload with an optional injector and a WorkAuditor attached,
// returning the tap. Targets cover ghosts ids past the last node, which
// never exist. No node departs, so the ledger must balance exactly —
// deliveries reconcile against sends minus dead-receiver and injected
// drops plus duplicated extras.
func workloadRun(t *testing.T, inj sim.Injector, ghosts int) *statsTap {
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
			ctx.Send(sim.NodeID((int(ctx.ID())+j*7)%(n+ghosts)+1), j, 16)
		}
		return true
	})
	for i := 0; i < n; i++ {
		net.SpawnHandler(sim.NodeID(i+1), flood)
	}
	net.Run(rounds)
	net.Shutdown()
	if a.checked == 0 {
		t.Fatal("auditor checked no rounds")
	}
	if a.mismatches != 0 {
		t.Fatalf("work ledger mismatched %d rounds: %+v", a.mismatches, rep.got)
	}
	if tap.last.Delivered == 0 {
		t.Fatalf("bare auditor's RoundEnd saw %+v, want Delivered > 0", tap.last)
	}
	return tap
}

// TestWorkAuditorCleanRun: no faults, ledger balances.
func TestWorkAuditorCleanRun(t *testing.T) {
	workloadRun(t, nil, 0)
}

// TestWorkAuditorDeadReceivers: sends to ids that never existed are
// dead-receiver drops, and the ledger balances with no departure to
// excuse a shortfall.
func TestWorkAuditorDeadReceivers(t *testing.T) {
	if tap := workloadRun(t, nil, 4); tap.dead == 0 {
		t.Fatal("test premise broken: no dead-receiver drops")
	}
}

// TestWorkAuditorUnderInjectedFaults: the ledger must still balance
// when the injector drops and duplicates messages, because the round's
// stats carry the drops and the duplicated extras.
func TestWorkAuditorUnderInjectedFaults(t *testing.T) {
	spec := fault.Spec{Seed: 9, Drop: 0.1, Dup: 0.05}
	workloadRun(t, spec.Injector(), 0)
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
	a.RoundStart(1, 10)
	a.RoundEnd(stats(1, 5, 0))
	a.RoundStart(2, 10)
	a.RoundEnd(stats(2, 5, 5)) // 5 sent, 5 delivered: balanced
	a.RoundStart(3, 10)
	a.RoundEnd(stats(3, 5, 9)) // 9 delivered out of 5 sent: impossible
	if a.mismatches != 1 || len(rep.got) != 1 {
		t.Fatalf("mismatches=%d reports=%d, want 1/1", a.mismatches, len(rep.got))
	}
	if rep.got[0].Invariant != "work-conservation" {
		t.Fatalf("violation = %+v", rep.got[0])
	}
	// A shortfall without departures is also a violation…
	a.RoundStart(4, 10)
	a.RoundEnd(stats(4, 5, 2))
	if a.mismatches != 2 {
		t.Fatalf("shortfall without departures not reported (mismatches=%d)", a.mismatches)
	}
	// …but with a departure in between it is absorbed silently.
	a.NodeSpawned(4, 11)
	a.RoundStart(5, 10) // 10+1 spawned − 10 alive ⇒ one departure
	a.RoundEnd(stats(5, 5, 2))
	if a.mismatches != 2 {
		t.Fatalf("shortfall with a departure was reported (mismatches=%d)", a.mismatches)
	}
	// Each drop reason and the duplicated extras are on the ledger: after
	// 9 sends with 1 dead-receiver drop, 2 injected drops and 3 extra
	// copies, 9 deliveries balance and any other count is a mismatch.
	for _, delivered := range []int64{9, 8, 7, 12, 10} {
		b := NewWorkAuditor(nil, nil)
		sent := stats(1, 9, 0)
		sent.Dropped[sim.DropDeadReceiver] = 1
		sent.Dropped[sim.DropFaultInjected] = 2
		sent.DupExtra = 3
		b.RoundStart(1, 10)
		b.RoundEnd(sent)
		b.RoundStart(2, 10)
		b.RoundEnd(stats(2, 0, delivered))
		want := 1
		if delivered == 9 {
			want = 0
		}
		if b.mismatches != want {
			t.Errorf("delivered %d against a ledger of 9: %d mismatches, want %d", delivered, b.mismatches, want)
		}
	}
	// So is the latency calendar: 9 sends of which 4 copies were moved
	// into it, and 2 older copies placed out of it, deliver 7.
	for _, delivered := range []int64{7, 9, 5, 6, 8} {
		b := NewWorkAuditor(nil, nil)
		sent := stats(1, 9, 0)
		sent.CalendarIn, sent.CalendarOut, sent.CalendarAbsorbed = 4, 2, 1
		b.RoundStart(1, 10)
		b.RoundEnd(sent)
		b.RoundStart(2, 10)
		b.RoundEnd(stats(2, 0, delivered))
		want := 1
		if delivered == 7 {
			want = 0
		}
		if b.mismatches != want {
			t.Errorf("delivered %d against a calendar ledger of 7: %d mismatches, want %d", delivered, b.mismatches, want)
		}
	}
}

// calendarTap sums the calendar terms of the kernel's round stats.
type calendarTap struct {
	*WorkAuditor
	in, out, absorbed int
}

func (c *calendarTap) RoundEnd(stats sim.RoundStats) {
	c.in += stats.CalendarIn
	c.out += stats.CalendarOut
	c.absorbed += stats.CalendarAbsorbed
	c.WorkAuditor.RoundEnd(stats)
}

// TestWorkAuditorUnderLatencySpread: under a latency spread a round's
// sends arrive over several later rounds, and nodes leave while copies
// addressed to them wait in the calendar. The calendar's in, out and
// absorbed counts keep the ledger exact: no round is reported, though
// the absorptions come long after the departures that excuse a
// shortfall.
func TestWorkAuditorUnderLatencySpread(t *testing.T) {
	lat, err := sim.ParseLatency("uniform:0.5,2.5")
	if err != nil {
		t.Fatal(err)
	}
	rep := &sliceReporter{}
	tap := &calendarTap{WorkAuditor: NewWorkAuditor(rep, nil)}
	net := sim.NewNetwork(sim.Config{Seed: 5, Latency: lat})
	net.SetTracer(tap)
	net.SetInjector(fault.Spec{Seed: 9, Drop: 0.1, Dup: 0.05}.Injector())
	const n, rounds = 32, 16
	flood := sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
		for j := 0; j < 3; j++ {
			ctx.Send(sim.NodeID((int(ctx.ID())+j*7)%n+1), j, 16)
		}
		// Every fourth node leaves, one per round from round 4 on.
		id := int(ctx.ID())
		return id%4 != 0 || ctx.Round() < 3+id/4
	})
	for i := 0; i < n; i++ {
		net.SpawnHandler(sim.NodeID(i+1), flood)
	}
	net.Run(rounds)
	net.Shutdown()
	for _, v := range rep.got {
		t.Errorf("round %d: %s", v.Round, v.Detail)
	}
	if tap.in == 0 || tap.absorbed == 0 || tap.out+tap.absorbed > tap.in {
		t.Fatalf("calendar in %d, out %d, absorbed %d: want copies deferred and absorbed, and no more out than in",
			tap.in, tap.out, tap.absorbed)
	}
}
