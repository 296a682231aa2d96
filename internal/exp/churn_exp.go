package exp

import (
	"fmt"
	"math"

	"overlaynet/internal/churn"
	"overlaynet/internal/core"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
)

// epochTally condenses a run of §4 epochs into what the tables report.
type epochTally struct {
	epochs, conn, valid int // epochs run; of them connected, valid
	failures            int // protocol failures, summed
	rounds, lastRounds  int // rounds, summed and of the last epoch
}

func tallyEpochs(reports []core.EpochReport) epochTally {
	t := epochTally{epochs: len(reports)}
	for _, rep := range reports {
		if rep.Connected {
			t.conn++
		}
		if rep.Valid {
			t.valid++
		}
		t.failures += rep.Failures
		t.rounds += rep.Rounds
		t.lastRounds = rep.Rounds
	}
	return t
}

// healthy: every epoch connected and valid, no protocol failure.
func (t epochTally) healthy() bool {
	return t.conn == t.epochs && t.valid == t.epochs && t.failures == 0
}

func (t epochTally) String() string {
	return fmt.Sprintf("conn %d/%d valid %d/%d", t.conn, t.epochs, t.valid, t.epochs)
}

// E6ReconfigChurn measures Theorems 4 and 5: rounds per reconfiguration
// (O(log log n)), and validity/connectivity of every epoch under
// adversarial churn of increasing aggressiveness.
func E6ReconfigChurn(o Options) *metrics.Table {
	t := metrics.NewTable("E6  Theorems 4/5 — reconfiguration under adversarial churn (d=8)",
		"n", "adversary", "epochs", "rounds/epoch", "loglog n", "connected", "valid", "failures")
	epochs := o.size(2, 4)
	ns := o.sizes([]int{64}, []int{64, 256, 1024})
	nadv := o.size(2, 5)
	t.AddRows(mustRows(RunRows(o, len(ns)*nadv, func(cell int) [][]string {
		n := ns[cell/nadv]
		advs := []struct {
			name string
			adv  churn.Adversary
		}{
			{"none", nil},
			{"replace-25%", &churn.Replace{Fraction: 0.25, R: rng.New(o.Seed + 1)}},
			{"replace-50%", &churn.Replace{Fraction: 0.5, R: rng.New(o.Seed + 2)}},
			{"target-oldest-25%", &churn.TargetOldest{Fraction: 0.25, R: rng.New(o.Seed + 3)}},
			{"neighborhood-25%", &churn.TargetNeighborhood{Fraction: 0.25, R: rng.New(o.Seed + 4)}},
		}
		a := advs[cell%nadv]
		nw := newCore(o.envGlobals(cell, o.Seed^uint64(n)), o.Seed^uint64(n), n)
		var reports []core.EpochReport
		if a.adv == nil {
			for e := 0; e < epochs; e++ {
				rep, _ := nw.RunEpoch(nil, nil)
				reports = append(reports, rep)
			}
		} else {
			reports = churn.Run(nw, a.adv, epochs)
		}
		nw.Shutdown()
		t := tallyEpochs(reports)
		return [][]string{metrics.Row(n, a.name, epochs, t.lastRounds,
			fmt.Sprintf("%.2f", math.Log2(math.Log2(float64(n)))),
			t.conn == epochs, t.valid == epochs, t.failures)}
	})))
	return t
}

// E7CongestionSegments measures Lemmas 11 and 12: the maximum number of
// placements any node receives per cycle and the longest empty segment
// along the old cycles, against a polylog envelope.
func E7CongestionSegments(o Options) *metrics.Table {
	t := metrics.NewTable("E7  Lemmas 11/12 — congestion and empty segments per reconfiguration",
		"n", "max chosen", "max empty segment", "log2 n", "polylog env (4 log^2)", "max bits/node-round")
	ns := o.sizes([]int{64}, []int{64, 256, 1024, 2048})
	t.AddRows(mustRows(RunRows(o, len(ns), func(cell int) [][]string {
		n := ns[cell]
		nw := newCore(o.envTraced(cell), o.Seed^uint64(n), n)
		maxChosen, maxSeg := 0, 0
		var maxBits int64
		epochs := o.size(1, 3)
		for e := 0; e < epochs; e++ {
			rep, _ := nw.RunEpoch(nil, nil)
			if rep.MaxChosen > maxChosen {
				maxChosen = rep.MaxChosen
			}
			if rep.MaxEmptySegment > maxSeg {
				maxSeg = rep.MaxEmptySegment
			}
			if rep.MaxNodeBits > maxBits {
				maxBits = rep.MaxNodeBits
			}
		}
		nw.Shutdown()
		return [][]string{metrics.Row(n, maxChosen, maxSeg, fmt.Sprintf("%.1f", math.Log2(float64(n))),
			metrics.PolylogEnvelope(n, 2, 4), maxBits)}
	})))
	return t
}
