package exp

import (
	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/splitmerge"
)

// E10ChurnDoS measures Theorem 7 and Lemma 18: connectivity under
// simultaneous churn (rate γ per reconfiguration) and a late
// (1/2−ε)-bounded DoS attack, plus the split/merge health: dimension
// spread ≤ 2 and Equation (1) maintained.
func E10ChurnDoS(o Options) *metrics.Table {
	t := metrics.NewTable("E10  Theorem 7 / Lemma 18 — churn + DoS with split/merge supernodes",
		"n0", "churn/epoch", "blocked", "epochs", "disc rounds", "dim spread", "eq1 ok", "splits", "merges", "n final")
	epochs := o.size(2, 4)
	n0s := o.sizes([]int{512}, []int{512, 1024, 2048})
	cases := []struct {
		churnFrac float64
		blocked   float64
	}{
		{0, 0.4},
		{0.125, 0},
		{0.125, 0.4},
		{0.25, 0.3},
	}
	if o.Quick {
		cases = cases[2:3]
	}
	t.AddRows(mustRows(RunRows(o, len(n0s)*len(cases), func(cell int) [][]string {
		n0 := n0s[cell/len(cases)]
		cse := cases[cell%len(cases)]
		nw := newSplitMerge(o.envGlobals(cell, o.Seed^uint64(n0)), splitmerge.Config{Seed: o.Seed ^ uint64(n0), N0: n0})
		var adv dos.Adversary
		if cse.blocked > 0 {
			adv = &dos.GroupIsolate{Fraction: cse.blocked, R: rng.New(o.Seed + uint64(n0))}
		}
		buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
		r := rng.New(o.Seed + 99)
		for e := 0; e < epochs; e++ {
			nw.ReplaceMembers(r, int(cse.churnFrac*float64(nw.N())))
			nw.Run(adv, buf, nw.EpochRounds())
		}
		st := nw.StatsSnapshot()
		return [][]string{metrics.Row(n0, cse.churnFrac, cse.blocked, epochs, st.Disconnected,
			st.MaxDimSpread, st.Eq1Violations == 0 && nw.Eq1Holds(),
			st.Splits, st.Merges+st.ForcedMerges, nw.N())}
	})))
	return t
}
