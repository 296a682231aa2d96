package exp

import (
	"fmt"
	"math"

	"overlaynet/internal/apps/anon"
	"overlaynet/internal/apps/dht"
	"overlaynet/internal/apps/pubsub"
	"overlaynet/internal/dos"
	"overlaynet/internal/metrics"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/supernode"
)

// E11AnonRouting measures Corollary 2: request and reply delivery
// rates, O(1) rounds per request, and exit-server entropy (anonymity)
// under increasing blocked fractions.
func E11AnonRouting(o Options) *metrics.Table {
	t := metrics.NewTable("E11  Corollary 2 — robust anonymous routing",
		"n", "blocked frac", "requests", "delivered", "replied", "rounds/req", "exit entropy", "max entropy")
	requests := o.size(300, 2000)
	ns := o.sizes([]int{256}, []int{512, 1024})
	fracs := o.sizes([]int{0}, []int{0, 25, 40, 45})
	t.AddRows(mustRows(RunRows(o, len(ns)*len(fracs), func(cell int) [][]string {
		n := ns[cell/len(fracs)]
		frac := fracs[cell%len(fracs)]
		{
			fraction := float64(frac) / 100
			net := newSupernode(o.envDelivery(), supernode.Config{Seed: o.Seed ^ uint64(n), N: n, MeasureEvery: -1})
			sy := anon.NewSystem(net, o.Seed+uint64(n))
			adv := &dos.Random{Fraction: fraction, R: rng.New(o.Seed + uint64(frac)), IDs: blockedIDs(n)}
			delivered, replied := 0, 0
			counts := make([]int, n)
			for i := 0; i < requests; i++ {
				if i%64 == 0 {
					sy.ResampleDestinations() // reconfiguration epochs
				}
				seq := make([]map[sim.NodeID]bool, 4)
				for h := range seq {
					if fraction > 0 {
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
			return [][]string{metrics.Row(n, fraction, requests,
				fmt.Sprintf("%.1f%%", 100*float64(delivered)/float64(requests)),
				fmt.Sprintf("%.1f%%", 100*float64(replied)/float64(requests)),
				4, metrics.Entropy(counts), math.Log2(float64(n)))}
		}
	})))
	return t
}

// E12RobustDHT measures Theorem 8: the served fraction, rounds, and
// per-group congestion of one-request-per-server batches under blocked
// budgets around γ·n^{1/log log n}.
func E12RobustDHT(o Options) *metrics.Table {
	t := metrics.NewTable("E12  Theorem 8 — robust DHT batches (k-ary hypercube groups)",
		"n", "k", "d", "blocked", "budget", "served", "failed", "max rounds", "max congestion", "log^3 n")
	ns12 := o.sizes([]int{256}, []int{256, 1024, 4096})
	mults := o.sizes([]int{1}, []int{0, 1, 4})
	t.AddRows(mustRows(RunRows(o, len(ns12)*len(mults), func(cell int) [][]string {
		n := ns12[cell/len(mults)]
		mult := mults[cell%len(mults)]
		{
			budget := int(math.Pow(float64(n), 1/math.Log2(math.Log2(float64(n)))))
			d := dht.New(dht.Config{Seed: o.Seed ^ uint64(n), N: n})
			blockCount := budget * mult
			r := rng.New(o.Seed + uint64(n) + uint64(mult))
			blocked := map[sim.NodeID]bool{}
			for len(blocked) < blockCount {
				blocked[sim.NodeID(r.Intn(n)+1)] = true
			}
			hop := func(int) map[sim.NodeID]bool { return blocked }
			var ops []dht.BatchOp
			for i := 0; i < n; i++ {
				entry := sim.NodeID(i + 1)
				if blocked[entry] {
					continue // only non-blocked servers issue requests
				}
				ops = append(ops, dht.BatchOp{Entry: entry, Key: fmt.Sprintf("k%d", i), Value: "v"})
			}
			st := d.ServeBatch(ops, hop)
			return [][]string{metrics.Row(n, d.K(), d.D(), blockCount, budget, st.Served, st.Failed,
				st.MaxRounds, st.MaxCongestion, metrics.PolylogEnvelope(n, 3, 1))}
		}
	})))
	return t
}

// E13PubSub measures the Section 7.3 system: aggregation fan-in,
// publication completeness, and retrieval integrity across rebuilds.
func E13PubSub(o Options) *metrics.Table {
	t := metrics.NewTable("E13  §7.3 — publish-subscribe on the robust DHT",
		"n", "publications", "topics", "published", "failed", "fetched ok", "agg rounds")
	ns13 := o.sizes([]int{256}, []int{256, 1024})
	t.AddRows(mustRows(RunRows(o, len(ns13), func(cell int) [][]string {
		n := ns13[cell]
		d := dht.New(dht.Config{Seed: o.Seed ^ uint64(n), N: n})
		ps := pubsub.New(d)
		r := rng.New(o.Seed + uint64(n))
		pubsPerBatch := n / 4
		topics := 8
		var batch []pubsub.Publication
		for i := 0; i < pubsPerBatch; i++ {
			batch = append(batch, pubsub.Publication{
				Entry:   sim.NodeID(r.Intn(n) + 1),
				Topic:   fmt.Sprintf("topic%d", r.Intn(topics)),
				Payload: fmt.Sprintf("payload%d", i),
			})
		}
		st := ps.PublishBatch(batch, nil)
		d.Rebuild() // reconfiguration must not lose publications
		fetched := 0
		for k := 0; k < topics; k++ {
			items, err := ps.Fetch(sim.NodeID(r.Intn(n)+1), fmt.Sprintf("topic%d", k), nil)
			if err == nil {
				fetched += len(items)
			}
		}
		return [][]string{metrics.Row(n, pubsPerBatch, st.Topics, st.Published, st.Failed, fetched, st.Rounds)}
	})))
	return t
}
