// Churnstorm: an expander overlay rides out epochs of massive
// adversarial churn — half the network replaced per reconfiguration,
// then targeted attacks on the oldest nodes and on whole
// neighborhoods — while staying connected throughout (Theorem 5).
//
// Exits non-zero if any epoch loses connectivity, produces an invalid
// topology, or exceeds the expander eigenvalue bound, so it doubles as
// a CI smoke test.
//
//	go run ./examples/churnstorm
package main

import (
	"fmt"
	"math"
	"os"

	"overlaynet/internal/churn"
	"overlaynet/internal/core"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
)

func main() {
	const n = 512
	const d = 8
	lambdaBound := 2 * math.Sqrt(d) // Ramanujan-style bound from Corollary 1
	failed := false
	scenarios := []struct {
		name string
		adv  churn.Adversary
	}{
		{"replace 50% of all nodes each epoch", &churn.Replace{Fraction: 0.5, R: rng.New(2)}},
		{"kill the 25% oldest nodes each epoch", &churn.TargetOldest{Fraction: 0.25, R: rng.New(3)}},
		{"erase entire neighborhoods (25% budget)", &churn.TargetNeighborhood{Fraction: 0.25, R: rng.New(4)}},
	}
	for _, sc := range scenarios {
		nw := core.NewNetwork(core.Config{Seed: 11, N0: n, D: d, Alpha: 2, Epsilon: 1})
		r := rng.New(5)
		t := metrics.NewTable("churnstorm: "+sc.name,
			"epoch", "n", "rounds", "connected", "valid", "failures", "|lambda2| (<= 2 sqrt d = 5.66)")
		for range 4 {
			joins, leaves := sc.adv.Plan(churn.View{Members: nw.Members(), Neighbors: nw.NeighborsOf})
			rep, _ := nw.RunEpoch(joins, leaves)
			lambda2 := 0.0
			if rep.Connected {
				lambda2 = nw.BuildGraph().SecondEigenvalue(r, 100)
			}
			t.AddRow(rep.Epoch, rep.NNew, rep.Rounds, rep.Connected, rep.Valid, rep.Failures, lambda2)
			if !rep.Connected || !rep.Valid || lambda2 > lambdaBound {
				failed = true
				fmt.Fprintf(os.Stderr, "churnstorm: FAIL: %s epoch %d: connected=%v valid=%v |lambda2|=%.3f (bound %.3f)\n",
					sc.name, rep.Epoch, rep.Connected, rep.Valid, lambda2, lambdaBound)
			}
		}
		nw.Shutdown()
		fmt.Println(t.String())
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("every epoch stayed connected and produced a valid expander: the")
	fmt.Println("adversary's knowledge is obsolete the moment it acts (Theorem 5).")
}
