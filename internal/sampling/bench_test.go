package sampling

import (
	"fmt"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func BenchmarkRapidHGraph1024(b *testing.B) {
	h := hgraph.Random(rng.New(1), 1024, 8)
	p := HGraphParams{N: 1024, D: 8, Alpha: 2, Epsilon: 1, C: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RapidHGraph(uint64(i)+1, h, p)
	}
}

// BenchmarkRapidHGraphCoreShape is one sampling run at the budget
// schedule of the bench's core_churn workload (see coreShape): the
// sampling share of a Section 4 epoch without the 25 s driver run.
func BenchmarkRapidHGraphCoreShape(b *testing.B) {
	h := hgraph.Random(rng.New(1), coreShape.N, coreShape.D)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RapidHGraph(uint64(i)+1, h, coreShape)
	}
}

// BenchmarkSendRequests is one node's request step (extract m_i
// targets, group, send) at three points of the core_churn schedule. The
// multiset holds 3·m_i endpoints as it does in a run: in iteration 1
// (m = 4617) they are symbols of the node's 8 neighbors and d counters
// group the targets, later they are vertices spread over the network and
// the radix pass does. One op is one sim round of a one-node network
// whose sends go to absent ids, so the kernel's share is a round's fixed
// cost plus one outbox entry per batch.
func BenchmarkSendRequests(b *testing.B) {
	for _, c := range []struct{ mi, distinct int }{{19, 1024}, {513, 1024}, {4617, 8}} {
		b.Run(fmt.Sprintf("m=%d", c.mi), func(b *testing.B) {
			r := rng.New(1)
			s := HGraphSampler{
				idOf:   func(v int) sim.NodeID { return sim.NodeID(v) },
				idBits: sim.IDBits(1024),
			}
			var request func(ctx *sim.Ctx)
			if c.distinct <= MaxDegree { // iteration 1: M_0's symbols
				master := make([]uint8, 3*c.mi)
				r.FillIntn(master, c.distinct)
				for v := 0; v < c.distinct; v++ {
					s.neighbors = append(s.neighbors, 1024+v)
				}
				s.m = []int{len(master), c.mi}
				syms := make([]uint8, len(master))
				request = func(ctx *sim.Ctx) {
					s.syms = syms[:copy(syms, master)]
					s.requestNeighbors(ctx)
				}
			} else {
				master := make([]int32, 3*c.mi)
				for j := range master {
					master[j] = int32(1024 + r.Intn(c.distinct))
				}
				s.m, s.step = []int{0, len(master), c.mi}, 2
				s.targets = make([]int32, 2*c.mi)
				items := make([]int32, len(master))
				request = func(ctx *sim.Ctx) {
					s.M = items[:copy(items, master)]
					s.sendRequests(ctx, 2)
				}
			}
			net := sim.NewNetwork(sim.Config{Seed: 1})
			net.DisableWorkLog()
			net.SpawnHandler(1, sim.HandlerFunc(func(ctx *sim.Ctx, _ []sim.Message) bool {
				request(ctx)
				return true
			}))
			b.ReportAllocs()
			b.ResetTimer()
			net.Run(b.N)
			b.StopTimer()
			net.Shutdown()
		})
	}
}

func BenchmarkRapidHypercubeDim8(b *testing.B) {
	p := DefaultHypercubeParams(8)
	for i := 0; i < b.N; i++ {
		RapidHypercube(uint64(i)+1, p)
	}
}

func BenchmarkRapidKAry3x4(b *testing.B) {
	p := KAryParams{K: 3, Dim: 4, Epsilon: 1, C: 2}
	for i := 0; i < b.N; i++ {
		RapidKAry(uint64(i)+1, p)
	}
}

func BenchmarkBaselineWalkHGraph256(b *testing.B) {
	h := hgraph.Random(rng.New(1), 256, 8)
	p := DefaultHGraphParams(256, 8)
	steps := p.WalkTarget()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaselineWalkHGraph(uint64(i)+1, h, 4, steps)
	}
}

func BenchmarkCentralWalkHGraph(b *testing.B) {
	r := rng.New(1)
	h := hgraph.Random(r, 1024, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		WalkHGraph(r, h, i%1024, 44)
	}
}
