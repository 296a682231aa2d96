package exp

import (
	"fmt"

	"overlaynet/internal/audit"
	"overlaynet/internal/core"
	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
	"overlaynet/internal/trace"
)

// R1: the self-healing experiment. The paper proves its three networks
// never *enter* an illegal state under the adversaries it models; R1
// measures the complementary question — once an adversary outside the
// model has broken an invariant (a transient partition silently eating
// cross-component messages, or direct corruption of live protocol
// state), how many rounds do the repair paths need until every runtime
// auditor is quiet again (MTTR), and how much service survives while
// the overlay is broken (degraded-mode routing success and a sampling
// total-variation proxy over the knowledge components).

// r1Scenario is one break mode of the sweep: a transient partition of
// width k, or per-epoch state corruption with probability p. The spec's
// partition window is nominal here — each driver opens it at its own
// current round for exactly one epoch.
type r1Scenario struct {
	name string
	spec fault.Spec
}

func r1Scenarios(quick bool) []r1Scenario {
	if quick {
		return []r1Scenario{
			{"partition k=2", fault.Spec{PartK: 2, PartWin: 1}},
			{"corrupt p=1.0", fault.Spec{Corrupt: 1}},
		}
	}
	return []r1Scenario{
		{"partition k=2", fault.Spec{PartK: 2, PartWin: 1}},
		{"partition k=3", fault.Spec{PartK: 3, PartWin: 1}},
		{"corrupt p=0.5", fault.Spec{Corrupt: 0.5}},
		{"corrupt p=1.0", fault.Spec{Corrupt: 1}},
	}
}

// degradedService condenses the sizes of the connected components into
// the two degraded-mode service measures: the fraction of ordered node
// pairs that can still route (both endpoints in one component) and a
// total-variation proxy for sampling quality (the probability mass a
// uniform sampler loses to nodes outside the largest component).
func degradedService(sizes []int, n int) (routing, tv float64) {
	if n <= 1 {
		return 1, 0
	}
	var pairs, largest float64
	for _, c := range sizes {
		sz := float64(c)
		pairs += sz * (sz - 1)
		if sz > largest {
			largest = sz
		}
	}
	return pairs / (float64(n) * float64(n-1)), 1 - largest/float64(n)
}

// r1Engine builds the cell-local audit engine: cadence 1 regardless of
// Options.AuditEvery, because MTTR is measured at checker resolution.
// The cell-local recorder receives violation and recovery events
// without interfering with a shared -events stream.
func r1Engine(o Options, cell int, seed uint64) (*audit.Engine, *trace.Recorder) {
	rec := trace.New()
	scope := fmt.Sprintf("%s/cell%d", o.Exp, cell)
	return audit.NewEngine(scope, seed, 1, rec), rec
}

// r1Row renders one sweep cell from the engine's recovery ledger. The
// binding episode (largest MTTR) is reported; recovered means at least
// one break was observed and no invariant is still broken. Closed
// episodes are forwarded to the shared trace recorder so benchtables
// -events and tracestats see them.
func r1Row(o Options, system string, n int, scen string, eng *audit.Engine, repairs int, routing, tv float64) []string {
	recs := eng.Recoveries()
	if o.Trace != nil {
		for _, r := range recs {
			o.Trace.ReportRecovery(r)
		}
	}
	brokenAt, cleanAt, mttr := "-", "-", "-"
	if len(recs) > 0 {
		w := recs[0]
		for _, r := range recs[1:] {
			if r.Rounds > w.Rounds {
				w = r
			}
		}
		brokenAt, cleanAt, mttr = fmt.Sprint(w.BrokenAt), fmt.Sprint(w.CleanAt), fmt.Sprint(w.Rounds)
	}
	recovered := len(recs) > 0 && len(eng.OpenBreaks()) == 0
	return metrics.Row(system, n, scen, len(recs), brokenAt, cleanAt, mttr, repairs,
		fmt.Sprintf("%.3f", routing), fmt.Sprintf("%.3f", tv), recovered)
}

// R1Recovery sweeps partition width, corruption rate and n over the
// three networks, breaking each overlay and driving its repair path
// until the auditors go quiet (or a fixed budget runs out). Every
// decision is a pure function of the cell seed, so the table is
// byte-identical for any -procs or -shards.
func R1Recovery(o Options) *metrics.Table {
	t := metrics.NewTable("R1  Self-healing — partition & state corruption, measured time-to-recover",
		"system", "n", "fault", "episodes", "broken@", "clean@", "mttr (rounds)", "repairs", "svc routing", "svc sampling", "recovered")
	scens := r1Scenarios(o.Quick)
	coreNs := o.sizes([]int{48}, []int{48, 64})
	ovNs := o.sizes([]int{128}, []int{192, 256})
	perCore := len(coreNs) * len(scens)
	perOv := len(ovNs) * len(scens)
	t.AddRows(mustRows(RunRows(o, perCore+2*perOv, func(cell int) [][]string {
		switch {
		case cell < perCore:
			return [][]string{r1Core(o, cell, coreNs[cell/len(scens)], scens[cell%len(scens)])}
		case cell < perCore+perOv:
			c := cell - perCore
			return [][]string{r1Supernode(o, cell, ovNs[c/len(scens)], scens[c%len(scens)])}
		default:
			c := cell - perCore - perOv
			return [][]string{r1SplitMerge(o, cell, ovNs[c/len(scens)], scens[c%len(scens)])}
		}
	})))
	return t
}

// r1Core breaks and repairs the §4 reconfiguration network. A
// partition runs one whole epoch under a total cross-component message
// cut (the window opens at the current round and healing is the driver
// detaching the injector); corruption rewires live successor pointers
// through the shared backing arrays. Repair is the Hamilton-cycle
// splice: suspects computed from the broken topology leave and re-enter
// through the §4 join protocol until the auditors are quiet.
func r1Core(o Options, cell, n int, scen r1Scenario) []string {
	seed := cellSeed(o.Seed, 0x51, uint64(cell))
	spec := scen.spec.WithSeed(cellSeed(seed, 0x5a))
	eng, rec := r1Engine(o, cell, seed)

	// Unprotected control, like F1: R1 measures raw damage and repair,
	// not what retransmitting endpoints would mask (see f1Core).
	cfg := coreConfig(o, seed, n)
	cfg.Reliable = reliable.Config{}
	nw := core.NewNetwork(cfg)
	nw.SetMetrics(o.stack("core"))
	defer nw.Shutdown()
	nw.SetTrace(rec, fmt.Sprintf("%s/cell%d", o.Exp, cell))
	nw.SetAudit(eng)

	nw.RunEpoch(nil, nil) // clean warm-up epoch
	nw.ResetWork()

	routing, tv := 1.0, 0.0
	observe := func() {
		comps := nw.BuildGraph().Components()
		sizes := make([]int, len(comps))
		for i, c := range comps {
			sizes[i] = len(c)
		}
		r, t := degradedService(sizes, nw.N())
		if r < routing {
			routing = r
		}
		if t > tv {
			tv = t
		}
	}
	repairs := 0
	const budget = 8 // repair epochs per episode before giving up
	repairUntilClean := func() {
		for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
			nw.Repair()
			repairs++
			nw.ResetWork()
		}
	}

	if spec.PartWin > 0 {
		ps := spec
		ps.PartFrom = nw.Round()
		ps.PartWin = 1 << 30
		nw.SetInjector(ps.Injector())
		nw.RunEpoch(nil, nil) // one epoch under the cut
		nw.ResetWork()
		eng.RunNow(nw.Round())
		observe()
		nw.SetInjector(nil) // the partition heals
		repairUntilClean()
	} else {
		epochs := 4
		if o.Quick {
			epochs = 2
		}
		for e := 0; e < epochs; e++ {
			if spec.CorruptsAt(e) && nw.CorruptState(spec.CorruptPick(e)) != "" {
				eng.RunNow(nw.Round())
				observe()
				repairUntilClean()
				continue
			}
			nw.RunEpoch(nil, nil)
			nw.ResetWork()
		}
	}
	return r1Row(o, "reconfig §4", n, scen.name, eng, repairs, routing, tv)
}

// r1Supernode breaks and repairs the §5 supernode network. A partition
// gates both the supernode message queues and the every-round S(x)
// state broadcasts for one epoch; recovery after the window closes is
// the broadcast re-merging the knowledge graph, with no driver help.
// Corruption perturbs the replicated group state; repair is group
// re-formation from the surviving replicas (RepairGroups).
func r1Supernode(o Options, cell, n int, scen r1Scenario) []string {
	seed := cellSeed(o.Seed, 0x51, uint64(cell))
	spec := scen.spec.WithSeed(cellSeed(seed, 0x5a))
	eng, _ := r1Engine(o, cell, seed)

	nw := supernode.New(supernode.Config{Seed: seed, N: n, Shards: o.Shards})
	nw.SetMetrics(o.stack("supernode"))
	nw.SetAudit(eng)
	er := nw.EpochRounds()
	step := func(k int) {
		for i := 0; i < k; i++ {
			nw.Step(nil)
		}
	}
	step(er) // clean warm-up epoch

	routing, tv := 1.0, 0.0
	observe := func() {
		r, t := degradedService(nw.KnowledgeComponents(), n)
		if r < routing {
			routing = r
		}
		if t > tv {
			tv = t
		}
	}
	repairs := 0
	budget := 6 * er // recovery rounds per episode before giving up

	if spec.PartWin > 0 {
		ps := spec
		ps.PartFrom = nw.Round() + 1
		ps.PartWin = er
		nw.SetFaults(ps)
		for i := 0; i < er; i++ { // one epoch under the cut
			nw.Step(nil)
			observe()
		}
		// The window is closed; the S(x) broadcasts re-merge the knowledge
		// graph on their own. If auditors are still firing after a
		// two-epoch grace (reorganizations stalled mid-partition can leave
		// group damage the broadcasts cannot undo), escalate to the repair
		// protocol between rounds.
		for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
			if i >= 2*er && nw.RepairGroups() > 0 {
				repairs++
			}
			nw.Step(nil)
		}
	} else {
		epochs := 3
		if o.Quick {
			epochs = 2
		}
		for e := 0; e < epochs; e++ {
			if spec.CorruptsAt(e) && nw.CorruptState(spec.CorruptPick(e)) != "" {
				eng.RunNow(nw.Round())
				observe()
				for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
					if nw.RepairGroups() > 0 {
						repairs++
					}
					nw.Step(nil)
				}
			}
			step(er)
		}
	}
	return r1Row(o, "supernode §5", n, scen.name, eng, repairs, routing, tv)
}

// r1SplitMerge breaks and repairs the §6 split/merge network. The
// partition path mirrors the supernode driver. Corruption either
// desynchronizes the membership index or mutates a supernode's label
// dimension (punching a coverage hole in the label tree); repair
// restores the label partition and forces a re-balance toward
// Equation (1) (RepairBalance), then reconciles the membership index
// (RepairMembership).
func r1SplitMerge(o Options, cell, n int, scen r1Scenario) []string {
	seed := cellSeed(o.Seed, 0x51, uint64(cell))
	spec := scen.spec.WithSeed(cellSeed(seed, 0x5a))
	eng, _ := r1Engine(o, cell, seed)

	nw := splitmerge.New(splitmerge.Config{Seed: seed, N0: n, Shards: o.Shards})
	nw.SetMetrics(o.stack("splitmerge"))
	nw.SetAudit(eng)
	er := nw.EpochRounds()
	step := func(k int) {
		for i := 0; i < k; i++ {
			nw.Step(nil)
		}
	}
	step(er) // clean warm-up epoch

	routing, tv := 1.0, 0.0
	observe := func() {
		r, t := degradedService(nw.KnowledgeComponents(), nw.N())
		if r < routing {
			routing = r
		}
		if t > tv {
			tv = t
		}
	}
	repairs := 0
	budget := 6 * er

	if spec.PartWin > 0 {
		ps := spec
		ps.PartFrom = nw.Round() + 1
		ps.PartWin = er
		nw.SetFaults(ps)
		for i := 0; i < er; i++ { // one epoch under the cut
			nw.Step(nil)
			observe()
		}
		// Self-heal grace first (the broadcasts re-merge knowledge), then
		// escalate to the forced re-balance: a reorganization stalled
		// mid-partition can strand an empty or undersized group outside
		// the Equation (1) band, and with no members it has no leader to
		// ever merge itself away.
		for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
			if i >= 2*er && nw.RepairBalance()+nw.RepairMembership() > 0 {
				repairs++
			}
			nw.Step(nil)
		}
	} else {
		epochs := 3
		if o.Quick {
			epochs = 2
		}
		for e := 0; e < epochs; e++ {
			if spec.CorruptsAt(e) && nw.CorruptState(spec.CorruptPick(e)) != "" {
				eng.RunNow(nw.Round())
				observe()
				for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
					if nw.RepairBalance()+nw.RepairMembership() > 0 {
						repairs++
					}
					nw.Step(nil)
				}
			}
			step(er)
		}
	}
	return r1Row(o, "splitmerge §6", n, scen.name, eng, repairs, routing, tv)
}
