package core

import (
	"runtime"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
)

func BenchmarkEpoch256(b *testing.B) {
	nw := NewNetwork(Config{Seed: 1, N0: 256, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _ := nw.RunEpoch(nil, nil)
		if !rep.Valid {
			b.Fatal("invalid epoch")
		}
	}
}

func BenchmarkEpochWithChurn256(b *testing.B) {
	nw := NewNetwork(Config{Seed: 2, N0: 256, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members := nw.Members()
		joins := make([]JoinSpec, 32)
		for j := range joins {
			joins[j] = JoinSpec{Sponsor: members[64+j]}
		}
		rep, _ := nw.RunEpoch(joins, members[:32])
		if !rep.Valid {
			b.Fatal("invalid epoch")
		}
	}
}

// BenchmarkEpochWithChurn1024 runs §4 epochs at N0 = 1024 with an
// eighth of the nodes leaving and an eighth joining through distinct
// sponsors each epoch, and reports retained-B/node: the live heap after
// a collection between epochs, less the heap before the network was
// built, over the membership — the most any epoch left behind. It is
// the benchmark's core_churn live_bytes_per_node, reproducible with
// go test -run '^$' -bench EpochWithChurn1024 -benchtime 2x ./internal/core
func BenchmarkEpochWithChurn1024(b *testing.B) {
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := live()
	nw := NewNetwork(Config{Seed: 7, N0: 1024, D: 8, Alpha: 2, Epsilon: 1, Shards: 1})
	defer nw.Shutdown()
	r := rng.New(8)
	var retained float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members := nw.Members()
		k := len(members) / 8
		perm := r.Perm(len(members))
		leaves := make([]int, k)
		joins := make([]JoinSpec, k)
		for j := range leaves {
			leaves[j] = members[perm[j]]
			joins[j] = JoinSpec{Sponsor: members[perm[k+j]]}
		}
		rep, _ := nw.RunEpoch(joins, leaves)
		if !rep.Valid {
			b.Fatal("invalid epoch")
		}
		b.StopTimer()
		if held := live(); held > base {
			retained = max(retained, float64(held-base)/float64(len(nw.Members())))
		}
		b.StartTimer()
	}
	b.ReportMetric(retained, "retained-B/node")
}

func BenchmarkReconfigureRef1024(b *testing.B) {
	r := rng.New(3)
	old := hgraph.RandomCycle(r, 1024)
	placed := make([]int, 1024)
	for i := range placed {
		placed[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconfigureRef(r, old, placed); err != nil {
			b.Fatal(err)
		}
	}
}
