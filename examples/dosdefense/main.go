// Dosdefense: the Section 5 hypercube network under a massive DoS
// attack. The same group-isolating adversary disconnects the network
// instantly when it sees real-time topology, and fails completely when
// its information is 2t rounds old — the paper's headline contrast
// (Theorem 6 vs the Section 1.1 impossibility).
//
// Exits non-zero if either half of the contrast fails (the real-time
// adversary must cut the network; the Ω(log log n)-late one must not),
// so it doubles as a CI smoke test.
//
//	go run ./examples/dosdefense
package main

import (
	"fmt"
	"os"

	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/supernode"
)

func main() {
	const n = 1024
	const blockedFraction = 0.45

	t := metrics.NewTable(
		fmt.Sprintf("group-isolate adversary blocking %.0f%% of %d nodes", blockedFraction*100, n),
		"adversary lateness", "rounds", "disconnected rounds", "group stalls", "verdict").
		Format("adversary lateness", "%d rounds")

	failed := false
	for _, lateness := range []int{0, 1, -1} {
		nw := supernode.New(supernode.Config{Seed: 5, N: n})
		late := lateness
		if late < 0 {
			late = 2 * nw.EpochRounds() // the paper's Ω(log log n)-late regime
		}
		adv := &dos.GroupIsolate{Fraction: blockedFraction, R: rng.New(77)}
		buf := &dos.Buffer{Lateness: late}
		nw.Run(adv, buf, 3*nw.EpochRounds())
		st := nw.StatsSnapshot()
		disc := st.Disconnected
		verdict := "network cut"
		if disc == 0 {
			verdict = "connectivity maintained"
		}
		t.AddRow(late, st.Rounds, disc, st.Stalls, verdict)
		// The headline contrast: real-time information cuts the network
		// (the Section 1.1 impossibility), 2t-stale information cannot
		// (Theorem 6).
		if lateness == 0 && disc == 0 {
			failed = true
			fmt.Fprintln(os.Stderr, "dosdefense: FAIL: real-time adversary did not disconnect the network")
		}
		if lateness < 0 && disc != 0 {
			failed = true
			fmt.Fprintf(os.Stderr, "dosdefense: FAIL: %d-round-late adversary disconnected the network for %d rounds\n", late, disc)
		}
	}
	fmt.Println(t.String())
	if failed {
		os.Exit(1)
	}
	fmt.Println("the groups are rebuilt from fresh uniform samples every Θ(log log n)")
	fmt.Println("rounds, so a late adversary always attacks yesterday's topology.")
}
