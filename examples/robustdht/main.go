// Robustdht: the Section 7.2 application — a distributed hash table
// whose servers are organized into the groups of a k-ary hypercube and
// periodically reshuffled. A full one-request-per-server batch is
// served under blocking at the paper's budget and beyond, and the data
// survives reconfigurations without moving (Theorem 8).
//
// Exits non-zero if any batch request fails or any publication is lost
// across the reconfiguration, so it doubles as a CI smoke test.
//
//	go run ./examples/robustdht
package main

import (
	"fmt"
	"math"
	"os"

	"overlaynet/internal/apps/dht"
	"overlaynet/internal/apps/pubsub"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func main() {
	const n = 1024
	d := dht.New(dht.Config{Seed: 31, N: n})
	fmt.Printf("robust DHT: %d servers in a %d-ary %d-cube (%d groups), %d replicas/key\n\n",
		n, d.K(), d.D(), d.NumGroups(), len(d.ReplicaSet("any")))

	failed := false
	budget := int(math.Pow(n, 1/math.Log2(math.Log2(n))))
	t := metrics.NewTable("one-write-per-server batches under blocking",
		"blocked servers", "requests", "served", "failed", "max rounds", "max group congestion")
	r := rng.New(32)
	for _, mult := range []int{0, 1, 4, 16} {
		blocked := map[sim.NodeID]bool{}
		for len(blocked) < budget*mult {
			blocked[sim.NodeID(r.Intn(n)+1)] = true
		}
		hop := func(int) map[sim.NodeID]bool { return blocked }
		var ops []dht.BatchOp
		for i := 0; i < n; i++ {
			entry := sim.NodeID(i + 1)
			if blocked[entry] {
				continue
			}
			ops = append(ops, dht.BatchOp{Entry: entry, Key: fmt.Sprintf("k/%d/%d", mult, i), Value: "v"})
		}
		st := d.ServeBatch(ops, hop)
		t.AddRow(len(blocked), len(ops), st.Served, st.Failed, st.MaxRounds, st.MaxCongestion)
		if st.Failed != 0 || st.Served != len(ops) {
			failed = true
			fmt.Fprintf(os.Stderr, "robustdht: FAIL: %d blocked: served %d/%d, %d failed\n",
				len(blocked), st.Served, len(ops), st.Failed)
		}
	}
	fmt.Println(t.String())
	fmt.Printf("(the paper's adversary budget is gamma*n^(1/loglog n) ~= %d servers)\n\n", budget)

	// Publish-subscribe on top (Section 7.3): publications survive
	// group reconfigurations because the replica sets are stable.
	ps := pubsub.New(d)
	var batch []pubsub.Publication
	for i := 0; i < 100; i++ {
		batch = append(batch, pubsub.Publication{
			Entry:   sim.NodeID(i + 1),
			Topic:   fmt.Sprintf("feed%d", i%4),
			Payload: fmt.Sprintf("item %d", i),
		})
	}
	st := ps.PublishBatch(batch, nil)
	d.Rebuild() // a reconfiguration epoch passes
	total := 0
	for k := 0; k < 4; k++ {
		items, err := ps.Fetch(sim.NodeID(500), fmt.Sprintf("feed%d", k), nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "robustdht: FAIL: fetch error:", err)
			os.Exit(1)
		}
		total += len(items)
	}
	fmt.Printf("publish-subscribe: %d publications across %d topics, %d fetched after a reconfiguration\n",
		st.Published, st.Topics, total)
	if total != st.Published {
		failed = true
		fmt.Fprintf(os.Stderr, "robustdht: FAIL: fetched %d of %d publications after reconfiguration\n",
			total, st.Published)
	}
	if failed {
		os.Exit(1)
	}
}
