// Anonymousrelay: the Section 7.1 application — a Tor-like relay
// service on the DoS-resistant hypercube. Requests keep flowing and
// exit servers stay statistically uniform even while 45% of the relay
// fleet is blocked every round (Corollary 2).
//
// Exits non-zero if delivery drops below 100% or the exit distribution
// loses most of its entropy, so it doubles as a CI smoke test.
//
//	go run ./examples/anonymousrelay
package main

import (
	"fmt"
	"math"
	"os"

	"overlaynet/internal/apps/anon"
	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
)

func main() {
	const n = 512
	const requests = 3000

	t := metrics.NewTable("anonymous relaying under DoS attack (n=512 relay servers)",
		"blocked", "delivered", "replied", "rounds/request", "exit entropy (max 9.00 bits)").
		Format("blocked", "%.0f%%").Format("delivered", "%.2f%%").Format("replied", "%.2f%%").
		Format("exit entropy (max 9.00 bits)", "%.2f")

	failed := false
	for _, frac := range []float64{0, 0.25, 0.45} {
		net := supernode.New(supernode.Config{Seed: 21, N: n, MeasureEvery: -1})
		sy := anon.NewSystem(net, 22)
		ids := make([]sim.NodeID, n)
		for i := range ids {
			ids[i] = sim.NodeID(i + 1)
		}
		adv := &dos.Random{Fraction: frac, R: rng.New(23), IDs: func() []sim.NodeID { return ids }}
		delivered, replied := 0, 0
		counts := make([]int, n)
		for i := 0; i < requests; i++ {
			if i%64 == 0 {
				// A reconfiguration epoch completed: destination
				// groups are resampled uniformly.
				sy.ResampleDestinations()
			}
			seq := make([]map[sim.NodeID]bool, 4)
			for h := range seq {
				if frac > 0 {
					seq[h] = adv.SelectBlocked(i+h, n, nil)
				}
			}
			entry := sim.NodeID(0)
			for v := 1; v <= n; v++ {
				if seq[0] == nil || !seq[0][sim.NodeID(v)] {
					entry = sim.NodeID(v)
					break
				}
			}
			res := sy.Request(entry, seq)
			if res.Delivered {
				delivered++
				counts[int(res.Exit)-1]++
			}
			if res.ReplyDelivered {
				replied++
			}
		}
		entropy := metrics.Entropy(counts)
		t.AddRow(frac*100, 100*float64(delivered)/requests, 100*float64(replied)/requests, 4, entropy)
		// Corollary 2: requests keep flowing under attack, and exits
		// remain near-uniform (full entropy would be log2(n) = 9 bits).
		if delivered != requests || float64(replied) < 0.9*requests || entropy < 8.0 {
			failed = true
			fmt.Fprintf(os.Stderr, "anonymousrelay: FAIL: %.0f%% blocked: delivered %d/%d, replied %d, entropy %.2f bits\n",
				frac*100, delivered, requests, replied, entropy)
		}
	}
	fmt.Println(t.String())
	if failed {
		os.Exit(1)
	}
	fmt.Printf("uniform exits would give %.2f bits of entropy; the attacker cannot\n", math.Log2(n))
	fmt.Println("do better than guessing which server a message left through.")
}
