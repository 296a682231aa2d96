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

// churn1024 is a §4 network at N0 = 1024 whose epochs see an eighth of
// the nodes leave and an eighth join through distinct sponsors.
type churn1024 struct {
	nw *Network
	r  *rng.RNG
}

func newChurn1024() *churn1024 {
	return &churn1024{nw: NewNetwork(Config{Seed: 7, N0: 1024, D: 8, Alpha: 2, Epsilon: 1}), r: rng.New(8)}
}

func (c *churn1024) epoch(tb testing.TB) {
	members := c.nw.Members()
	k := len(members) / 8
	perm := c.r.Perm(len(members))
	leaves := make([]int, k)
	joins := make([]JoinSpec, k)
	for j := range leaves {
		leaves[j] = members[perm[j]]
		joins[j] = JoinSpec{Sponsor: members[perm[k+j]]}
	}
	if rep, _ := c.nw.RunEpoch(joins, leaves); !rep.Valid {
		tb.Fatal("invalid epoch")
	}
}

// liveHeap is the live heap after a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retained is the live heap above base per member.
func (c *churn1024) retained(base uint64) float64 {
	held := liveHeap()
	if held <= base {
		return 0
	}
	return float64(held-base) / float64(len(c.nw.Members()))
}

// BenchmarkEpochWithChurn1024 runs churn1024's epochs and reports
// retained-B/node: the live heap after a collection between epochs,
// less the heap before the network was built, over the membership — the
// most any epoch left behind. It is the benchmark's core_churn
// live_bytes_per_node, reproducible with
// go test -run '^$' -bench EpochWithChurn1024 -benchtime 2x ./internal/core
func BenchmarkEpochWithChurn1024(b *testing.B) {
	base := liveHeap()
	c := newChurn1024()
	defer c.nw.Shutdown()
	var retained float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.epoch(b)
		b.StopTimer()
		retained = max(retained, c.retained(base))
		b.StartTimer()
	}
	b.ReportMetric(retained, "retained-B/node")
}

// TestChurnEpochReleasesKernelBuffers bounds what one churn1024 epoch
// leaves behind. An epoch's sampling rounds send ~100x the messages of
// the rounds after them; the kernel's release rule gives that burst's
// send log and inbox arena back (~2.3 kB/node retained, 38.9 kB without
// it).
func TestChurnEpochReleasesKernelBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const bound = 8000
	base := liveHeap()
	c := newChurn1024()
	defer c.nw.Shutdown()
	c.epoch(t)
	retained := c.retained(base)
	t.Logf("retained %.0f B/node", retained)
	if retained > bound {
		t.Fatalf("a churn epoch at N0 = 1024 retained %.0f B/node, want <= %d", retained, bound)
	}
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
