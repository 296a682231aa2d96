package exp

import (
	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
)

// E8DoSConnectivity measures Theorem 6 and its negative control: the
// fraction of rounds in which the non-blocked nodes stay connected,
// under blocked fractions approaching 1/2, for a 2t-late group-isolate
// adversary versus the same adversary with real-time topology.
func E8DoSConnectivity(o Options) *metrics.Table {
	t := metrics.NewTable("E8  Theorem 6 — connectivity under DoS attack (group-isolate adversary)",
		"n", "blocked frac", "lateness", "rounds", "disconnected rounds", "stalls")
	epochs := o.size(2, 3)
	ns := o.sizes([]int{256}, []int{256, 1024, 4096})
	fracs := []float64{0.1, 0.25, 0.4, 0.45}
	if o.Quick {
		fracs = []float64{0.4}
	}
	return sweep(o, t, len(ns)*len(fracs)*2, func(cell int) [][]any {
		n := ns[cell/(len(fracs)*2)]
		frac := fracs[cell/2%len(fracs)]
		late := cell%2 == 0
		nw := newSupernode(o.envGlobals(cell, o.Seed^uint64(n)), supernode.Config{Seed: o.Seed ^ uint64(n), N: n})
		lateness, st := isolate(nw, frac, rng.New(o.Seed+uint64(n)+uint64(frac*100)), late, epochs)
		return [][]any{{n, frac, lateness, st.Rounds, st.Disconnected, st.Stalls}}
	})
}

// isolate attacks nw for the given number of epochs with the
// group-isolate adversary, 2t-late (the paper's regime) or with the
// real-time topology, and returns that lateness and the resulting health.
func isolate(nw *supernode.Network, frac float64, r *rng.RNG, late bool, epochs int) (lateness int, st supernode.Stats) {
	if late {
		lateness = 2 * nw.EpochRounds()
	}
	nw.Run(&dos.GroupIsolate{Fraction: frac, R: r}, &dos.Buffer{Lateness: lateness}, epochs*nw.EpochRounds())
	return lateness, nw.StatsSnapshot()
}

// E9GroupBalance measures Lemmas 16 and 17: the min/max group sizes
// against the (1±δ)n/N band, and the largest per-group blocked
// fraction under a late half-each-group adversary (must stay < 1/2).
func E9GroupBalance(o Options) *metrics.Table {
	t := metrics.NewTable("E9  Lemmas 16/17 — group concentration and per-group blocking",
		"n", "N groups", "mean size", "min", "max", "blocked frac", "max blocked frac of a group", "always ≥1 avail")
	ns := o.sizes([]int{256}, []int{256, 1024, 4096})
	fracs := []float64{0.25, 0.45}
	if o.Quick {
		fracs = fracs[1:]
	}
	return sweep(o, t, len(ns)*len(fracs), func(cell int) [][]any {
		n := ns[cell/len(fracs)]
		frac := fracs[cell%len(fracs)]
		nw := newSupernode(o.envDelivery(), supernode.Config{Seed: o.Seed ^ uint64(n), N: n, MeasureEvery: -1})
		adv := &dos.HalfEachGroup{Fraction: frac, R: rng.New(o.Seed + uint64(n))}
		buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
		maxFrac := 0.0
		allAvail := true
		rounds := o.size(nw.EpochRounds(), 2*nw.EpochRounds())
		for i := 0; i < rounds; i++ {
			buf.Publish(nw.Snapshot())
			blocked := adv.SelectBlocked(nw.Round()+1, n, buf.View(nw.Round()+1))
			// Measure blocking against the CURRENT groups before stepping.
			for _, g := range nw.Groups() {
				if len(g) == 0 {
					continue
				}
				b := 0
				for _, id := range g {
					if blocked[id] {
						b++
					}
				}
				if f := float64(b) / float64(len(g)); f > maxFrac {
					maxFrac = f
				}
				if b == len(g) {
					allAvail = false
				}
			}
			nw.Step(blocked)
		}
		sizes := nw.GroupSizes()
		s := metrics.SummarizeInts(sizes)
		return [][]any{{n, nw.NSuper(), s.Mean, s.Min, s.Max, frac, maxFrac, allAvail}}
	})
}

// A2SyncRule compares the paper's lowest-id synchronization rule with a
// rotating-leader rule: both must keep the groups consistent and the
// network connected under attack (the rule only needs determinism).
func A2SyncRule(o Options) *metrics.Table {
	t := metrics.NewTable("A2  Ablation — synchronization rule (n=1024, blocked 0.4, late)",
		"rule", "rounds", "disconnected", "stalls", "empty groups")
	n := o.size(256, 1024)
	return sweep(o, t, 2, func(cell int) [][]any {
		random := cell == 1
		nw := newSupernode(o.envDelivery(), supernode.Config{Seed: o.Seed, N: n, RandomLeader: random})
		_, st := isolate(nw, 0.4, rng.New(o.Seed+7), true, 3)
		name := "lowest-id"
		if random {
			name = "rotating"
		}
		return [][]any{{name, st.Rounds, st.Disconnected, st.Stalls, st.EmptyGroups}}
	})
}

// blockedIDs enumerates node ids 1..n (helper for adversaries needing
// an id universe).
func blockedIDs(n int) func() []sim.NodeID {
	ids := make([]sim.NodeID, n)
	for i := range ids {
		ids[i] = sim.NodeID(i + 1)
	}
	return func() []sim.NodeID { return ids }
}
