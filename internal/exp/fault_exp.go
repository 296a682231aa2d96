package exp

import (
	"strings"

	"overlaynet/internal/audit"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/splitmerge"
)

// f1Specs is the fault matrix: message-level faults, crash-restart, and
// their combinations, against the no-fault control.
func f1Specs(quick bool) []fault.Spec {
	if quick {
		return []fault.Spec{
			{},
			{Drop: 0.05},
			{Crash: 0.1},
		}
	}
	return []fault.Spec{
		{},
		{Drop: 0.01},
		{Drop: 0.05},
		{Dup: 0.01},
		{Drop: 0.02, Dup: 0.02},
		{Crash: 0.1, Restart: 1},
		{Drop: 0.01, Crash: 0.1, Restart: 2},
	}
}

// failedInvariants renders the engine's verdict: every registered
// invariant that reported at least one violation, or "-".
func failedInvariants(e *audit.Engine) string {
	var bad []string
	for _, name := range e.Invariants() {
		if e.CountFor(name) > 0 {
			bad = append(bad, name)
		}
	}
	if len(bad) == 0 {
		return "-"
	}
	return strings.Join(bad, "+")
}

// F1FaultMatrix records which runtime invariants survive which fault
// rates, with the audit engine always attached. The reconfiguration
// network (§4) takes crash-restart through the join protocol: a crashed
// node loses its volatile state, departs, and rejoins as a fresh member
// sponsored by a survivor after Restart epochs. The split/merge overlay
// (§6) takes message faults at its supernode queues and crashes as
// scheduled unresponsiveness, with an added DoS adversary to compound
// the stress. Work conservation and budget accounting must hold at
// every fault rate; exact issued==served conservation is expected to
// hold only in the no-message-fault rows.
func F1FaultMatrix(o Options) *metrics.Table {
	t := metrics.NewTable("F1  Invariant audit under deterministic fault injection",
		"system", "faults", "epochs", "crashes", "rejoins", "msg drops", "msg dups", "violations", "failed invariants", "healthy")
	specs := f1Specs(o.Quick)
	return sweep(o, t, 2*len(specs), func(cell int) [][]any {
		spec := specs[cell%len(specs)].WithSeed(cellSeed(o.Seed, 0xf1a, uint64(cell%len(specs))))
		if cell < len(specs) {
			return f1Core(o, cell, spec)
		}
		return f1SplitMerge(o, cell, spec)
	})
}

// f1Core runs the §4 reconfiguration network under spec, auditing every
// epoch. Crash-restart is driven at the churn interface: the crash
// schedule picks victims among current members each epoch, they leave
// (volatile state gone), and rejoin through the §4 join protocol once
// their downtime expires.
func f1Core(o Options, cell int, spec fault.Spec) [][]any {
	n := 64
	epochs := o.size(2, 4)
	seed := cellSeed(o.Seed, 0xf1, uint64(cell))
	ev := o.envLocal(cell, seed)
	ev.faults = spec
	nw := newCore(ev, seed, n)

	crashes, rejoins := 0, 0
	recoverAt := map[int]int{} // epoch -> nodes due back
	healthy := true
	for e := 0; e < epochs; e++ {
		var joins []core.JoinSpec
		var leaves []int
		if spec.Crash > 0 {
			members := nw.Members()
			var surv []int
			for _, id := range members {
				// Keep a quorum: never crash below half the network.
				if spec.Crashes(e, uint64(id)) && len(members)-len(leaves) > n/2 {
					leaves = append(leaves, id)
				} else {
					surv = append(surv, id)
				}
			}
			crashes += len(leaves)
			recoverAt[e+spec.RestartEpochs()] += len(leaves)
			if k := recoverAt[e]; k > 0 {
				delete(recoverAt, e)
				for i := 0; i < k; i++ {
					joins = append(joins, core.JoinSpec{Sponsor: surv[i%len(surv)]})
				}
				rejoins += k
			}
		}
		rep, _ := nw.RunEpoch(joins, leaves)
		healthy = healthy && rep.Connected && rep.Valid
	}
	nw.Shutdown()

	m := ev.trace.Snapshot()
	return [][]any{{"reconfig §4", spec.WithSeed(0).String(), epochs, crashes, rejoins,
		uint64(m["overlaynet_drops_fault_injected_total"]), uint64(m["overlaynet_dup_extra_copies_total"]),
		ev.audit.Count(), failedInvariants(ev.audit), healthy}}
}

// f1SplitMerge runs the §6 split/merge overlay under spec plus a late
// DoS adversary, auditing every round.
func f1SplitMerge(o Options, cell int, spec fault.Spec) [][]any {
	n0, epochs := o.size(128, 256), o.size(2, 3)
	seed := cellSeed(o.Seed, 0xf1, uint64(cell))
	ev := o.envLocal(cell, seed)
	ev.faults = spec
	nw := newSplitMerge(ev, splitmerge.Config{Seed: seed, N0: n0})
	adv := &dos.GroupIsolate{Fraction: 0.25, R: rng.New(seed + 17)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	nw.Run(adv, buf, epochs*nw.EpochRounds())
	st := nw.StatsSnapshot()
	healthy := st.Disconnected == 0 && nw.Eq1Holds()
	return [][]any{{"splitmerge §6", spec.WithSeed(0).String(), epochs,
		st.Crashes, st.Restarts, st.FaultDrops, st.FaultDups, ev.audit.Count(), failedInvariants(ev.audit), healthy}}
}
