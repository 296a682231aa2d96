package exp

import (
	"fmt"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
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
	all := []r1Scenario{
		{"partition k=2", fault.Spec{PartK: 2, PartWin: 1}},
		{"partition k=3", fault.Spec{PartK: 3, PartWin: 1}},
		{"corrupt p=0.5", fault.Spec{Corrupt: 0.5}},
		{"corrupt p=1.0", fault.Spec{Corrupt: 1}},
	}
	if quick {
		return []r1Scenario{all[0], all[3]}
	}
	return all
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

// worstService keeps the worst degraded-mode service observed while an
// overlay is broken; it starts at {routing: 1}.
type worstService struct{ routing, tv float64 }

func (w *worstService) observe(sizes []int, n int) {
	r, t := degradedService(sizes, n)
	w.routing, w.tv = min(w.routing, r), max(w.tv, t)
}

// r1Row renders one sweep cell from the engine's recovery ledger. The
// binding episode (largest MTTR) is reported; recovered means at least
// one break was observed and no invariant is still broken. Closed
// episodes are forwarded to the shared trace recorder so benchtables
// -events and tracestats see them.
func r1Row(o Options, system string, n int, scen string, eng *audit.Engine, repairs int, worst worstService) []string {
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
		fmt.Sprintf("%.3f", worst.routing), fmt.Sprintf("%.3f", worst.tv), recovered)
}

// R1Recovery sweeps partition width, corruption rate and n over the
// three networks, breaking each overlay and driving its repair path
// until the auditors go quiet (or a fixed budget runs out). Every
// decision is a pure function of the cell seed, so the table is
// byte-identical for any -procs or OVERLAYNET_SHARDS.
func R1Recovery(o Options) *metrics.Table {
	t := metrics.NewTable("R1  Self-healing — partition & state corruption, measured time-to-recover",
		"system", "n", "fault", "episodes", "broken@", "clean@", "mttr (rounds)", "repairs", "svc routing", "svc sampling", "recovered")
	scens := r1Scenarios(o.Quick)
	coreNs := o.sizes([]int{48}, []int{48, 64})
	ovNs := o.sizes([]int{128}, []int{192, 256})
	perCore := len(coreNs) * len(scens)
	perOv := len(ovNs) * len(scens)
	t.AddRows(mustRows(RunRows(o, perCore+2*perOv, func(cell int) [][]string {
		if cell < perCore {
			return [][]string{r1Core(o, cell, coreNs[cell/len(scens)], scens[cell%len(scens)])}
		}
		c := (cell - perCore) % perOv
		return [][]string{r1Overlay(o, cell, ovNs[c/len(scens)], scens[c%len(scens)], overlayKinds[(cell-perCore)/perOv])}
	})))
	return t
}

// r1Cell is what the §4 and the §5/§6 halves of a cell share: the seed,
// the scenario's spec bound to it, and the always-on audit engine —
// checking every tick, because MTTR is measured at checker resolution.
func r1Cell(o Options, cell int, scen r1Scenario) (seed uint64, spec fault.Spec, e env) {
	seed = cellSeed(o.Seed, 0x51, uint64(cell))
	return seed, scen.spec.WithSeed(cellSeed(seed, 0x5a)), o.envLocal(cell, seed)
}

// r1Core breaks and repairs the §4 reconfiguration network. A
// partition runs one whole epoch under a total cross-component message
// cut (the window opens at the current round and healing is the driver
// detaching the injector); corruption rewires live successor pointers
// through the shared backing arrays. Repair is the Hamilton-cycle
// splice: suspects computed from the broken topology leave and re-enter
// through the §4 join protocol until the auditors are quiet.
func r1Core(o Options, cell, n int, scen r1Scenario) []string {
	seed, spec, e := r1Cell(o, cell, scen)
	eng := e.audit
	nw := newCore(e, seed, n)
	defer nw.Shutdown()

	nw.RunEpoch(nil, nil) // clean warm-up epoch

	worst := worstService{routing: 1}
	observe := func() {
		comps := nw.BuildGraph().Components()
		sizes := make([]int, len(comps))
		for i, c := range comps {
			sizes[i] = len(c)
		}
		worst.observe(sizes, nw.N())
	}
	repairs := 0
	const budget = 8 // repair epochs per episode before giving up
	repairUntilClean := func() {
		for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
			nw.Repair()
			repairs++
		}
	}

	if spec.PartWin > 0 {
		ps := spec
		ps.PartFrom = nw.Round()
		ps.PartWin = 1 << 30
		inject(nw, ps)
		nw.RunEpoch(nil, nil) // one epoch under the cut
		eng.RunNow(nw.Round())
		observe()
		inject(nw, fault.Spec{}) // the partition heals
		repairUntilClean()
	} else {
		epochs := o.size(2, 4)
		for e := 0; e < epochs; e++ {
			if spec.CorruptsAt(e) && nw.CorruptState(spec.CorruptPick(e)) != "" {
				eng.RunNow(nw.Round())
				observe()
				repairUntilClean()
				continue
			}
			nw.RunEpoch(nil, nil)
		}
	}
	return r1Row(o, "reconfig §4", n, scen.name, eng, repairs, worst)
}

// r1Overlay breaks and repairs a §5 or §6 network. A partition gates
// both the supernode message queues and the every-round S(x) state
// broadcasts for one epoch; recovery after the window closes is the
// broadcast re-merging the knowledge graph, with no driver help.
// Corruption perturbs the replicated group state (§5), or desynchronizes
// the membership index or mutates a supernode's label dimension,
// punching a coverage hole in the label tree (§6); repair is the stack's
// own — group re-formation from the surviving replicas, or restoring the
// label partition, forcing a re-balance toward Equation (1) and
// reconciling the membership index.
func r1Overlay(o Options, cell, n int, scen r1Scenario, k overlayKind) []string {
	seed, spec, e := r1Cell(o, cell, scen)
	eng := e.audit
	nw := k.build(e, seed, n, 0, 0)
	defer nw.Close()
	er := nw.EpochRounds()
	step := func(k int) {
		for i := 0; i < k; i++ {
			nw.step()
		}
	}
	step(er) // clean warm-up epoch

	worst := worstService{routing: 1}
	repairs := 0
	budget := 6 * er // recovery rounds per episode before giving up

	if spec.PartWin > 0 {
		cut(nw, spec, er)
		for i := 0; i < er; i++ { // one epoch under the cut
			nw.step()
			worst.observe(nw.KnowledgeComponents(), nw.n())
		}
		// The window is closed; the S(x) broadcasts re-merge the knowledge
		// graph on their own. If auditors are still firing after a
		// two-epoch grace, escalate to the repair protocol between rounds:
		// a reorganization stalled mid-partition can leave group damage the
		// broadcasts cannot undo — in §6 an empty or undersized group
		// outside the Equation (1) band, which with no members has no
		// leader to ever merge itself away.
		for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
			if i >= 2*er && nw.repair() > 0 {
				repairs++
			}
			nw.step()
		}
	} else {
		epochs := o.size(2, 3)
		for e := 0; e < epochs; e++ {
			if spec.CorruptsAt(e) && nw.CorruptState(spec.CorruptPick(e)) != "" {
				eng.RunNow(nw.Round())
				worst.observe(nw.KnowledgeComponents(), nw.n())
				for i := 0; i < budget && len(eng.OpenBreaks()) > 0; i++ {
					if nw.repair() > 0 {
						repairs++
					}
					nw.step()
				}
			}
			step(er)
		}
	}
	return r1Row(o, k.label(), n, scen.name, eng, repairs, worst)
}
