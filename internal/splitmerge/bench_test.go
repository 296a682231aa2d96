package splitmerge

import (
	"fmt"
	"runtime"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func BenchmarkEpoch1024(b *testing.B) {
	nw := New(Config{Seed: 1, N0: 1024, MeasureEvery: -1})
	buf := &dos.Buffer{Lateness: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Run(nil, buf, nw.EpochRounds())
	}
}

func BenchmarkEpochWithChurn1024(b *testing.B) {
	nw := New(Config{Seed: 2, N0: 1024, MeasureEvery: -1})
	buf := &dos.Buffer{Lateness: 1}
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		members := nw.Members()
		gone := map[sim.NodeID]bool{}
		for len(gone) < len(members)/8 {
			id := members[r.Intn(len(members))]
			if !gone[id] {
				gone[id] = true
				nw.Leave(id)
			}
		}
		for j := 0; j < len(members)/8; j++ {
			for {
				s := members[r.Intn(len(members))]
				if !gone[s] {
					nw.Join(s)
					break
				}
			}
		}
		nw.Run(nil, buf, nw.EpochRounds())
	}
}

// benchStep drives steady-state rounds with no adversary at scale.
// MeasureEvery is disabled: the connectivity measurement is a
// diagnostic, not part of the protocol round, and it would dominate at
// large n.
func benchStep(b *testing.B, n, shards int) {
	nw := New(Config{Seed: 1, N0: n, MeasureEvery: -1, Shards: shards})
	defer nw.Close()
	// Warm one full epoch so every scratch arena reaches steady state.
	for i := 0; i < nw.EpochRounds(); i++ {
		nw.Step(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(nil)
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse)/1e6, "heapMB")
}

func BenchmarkStep(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStep(b, n, 1) })
	}
}

// BenchmarkStepSharded exercises the intra-round worker partition; on a
// multi-core machine the rounds speed up, on any machine the tables
// stay byte-identical (see identity tests).
func BenchmarkStepSharded(b *testing.B) {
	for _, shards := range []int{2, 4} {
		b.Run(fmt.Sprintf("n=100000/shards=%d", shards), func(b *testing.B) {
			benchStep(b, 100000, shards)
		})
	}
}

// BenchmarkStep1M is the full-epoch memory-budget row. At n=1M the
// default Epsilon=1 sampling budget would be enormous; the scale
// experiment uses a tighter slack, mirrored here.
func BenchmarkStep1M(b *testing.B) {
	if testing.Short() {
		b.Skip("n=1M row is for explicit -bench runs")
	}
	nw := New(Config{Seed: 1, N0: 1000000, MeasureEvery: -1, Epsilon: 0.1})
	defer nw.Close()
	for i := 0; i < nw.EpochRounds(); i++ {
		nw.Step(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(nil)
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse)/1e6, "heapMB")
}

// BenchmarkAttackRound is one round of the late DoS attack at n=2048:
// publish a snapshot, let a group-isolate adversary pick its blocks from
// the one two epochs old, Step under them and ask the connectivity
// oracle. Two warm epochs fill the buffer first, so the rounds timed are
// the steady state, with a full window of snapshots held.
func BenchmarkAttackRound(b *testing.B) {
	nw := New(Config{Seed: 1, N0: 2048, MeasureEvery: -1, Shards: 1})
	defer nw.Close()
	adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(5)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	for i := 0; i < 2*nw.EpochRounds(); i++ {
		buf.Publish(nw.Snapshot())
		nw.Step(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Publish(nw.Snapshot())
		blocked := adv.SelectBlocked(nw.Round()+1, nw.N(), buf.View(nw.Round()+1))
		nw.Step(blocked)
		if !nw.ConnectedNow() {
			b.Fatalf("round %d: disconnected under the late attack", nw.Round())
		}
	}
}
