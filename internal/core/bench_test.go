package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
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
// leaves behind. The epoch's commit round sends nothing, so the
// kernel's idle rule gives its send log and inbox arena back, and the
// epoch's arena takes Algorithm 3's phase state and the nodes' slots
// with it; the round scratch (a node's bits and its log and inbox
// ranges) goes with the kernel's buffers. What stays is about
// 170 B/node: per node the kernel's table slot, Ctx and id entry, its
// coreNode, its member id and its rows of the topology block.
func TestChurnEpochReleasesKernelBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const bound = 240
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

// TestChurnEpochAllocs bounds the allocations of one churn1024 epoch.
// Algorithm 3's phase state and payloads are carved from the epoch's
// arena, so what is left is mostly Algorithm 1's serve arrays and the
// kernel's buffers: about 23.2 k (61.4 k when each member made its own
// phase slices and every send boxed its payload).
func TestChurnEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	const bound = 40000
	c := newChurn1024()
	defer c.nw.Shutdown()
	allocs := testing.AllocsPerRun(1, func() { c.epoch(t) })
	t.Logf("%.0f allocations per epoch", allocs)
	if allocs > bound {
		t.Fatalf("a churn epoch at N0 = 1024 made %.0f allocations, want <= %d", allocs, bound)
	}
}

// arenaWatch is a sim.Tracer that, at the end of every round, takes weak
// pointers to the running epoch's arena and to the state it has handed
// out, and one to the topology block the network adopts.
type arenaWatch struct {
	nw    *Network
	state map[string]func() bool // reports whether the object is still reachable
	topo  func() bool
}

func watch[T any](p *T) func() bool {
	w := weak.Make(p)
	return func() bool { return w.Value() != nil }
}

func (w *arenaWatch) RoundStart(round, alive int)          {}
func (w *arenaWatch) NodeSpawned(round int, id sim.NodeID) {}
func (w *arenaWatch) RoundEnd(sim.RoundStats) {
	a := w.nw.plan.arena
	if a == nil {
		return
	}
	w.state["the arena"] = watch(a)
	w.state["the slots"] = watch(&a.slots[0])
	w.state["the member states"] = watch(&a.members[0])
	w.state["the cycle states"] = watch(&a.cycles[0])
	w.state["the neighbour lists"] = watch(&a.neighbors[0])
	w.topo = watch(&a.topo[0])
	for i, cs := range a.cycles {
		if len(cs.seq) > 0 {
			w.state[fmt.Sprintf("cycle state %d's placed ids", i)] = watch(&cs.seq[0])
		}
	}
	for i, ms := range a.members {
		if len(ms.joiners) > 0 {
			w.state[fmt.Sprintf("member %d's joiners", i)] = watch(&ms.joiners[0])
		}
	}
}

// TestCoreNodeFootprint holds §4's rule for what outlives an epoch, the
// counterpart of the sampler's "nothing retained after completion"
// (TestSamplerReleasesScratch): a coreNode is at most 32 bytes, and
// once RunEpoch returns no node or plan refers to the epoch's arena or
// to anything it handed out. Only the topology block the network
// adopted stays reachable, which shows the check can see a reference.
func TestCoreNodeFootprint(t *testing.T) {
	if size := unsafe.Sizeof(coreNode{}); size > 32 {
		t.Fatalf("coreNode is %d B, want <= 32", size)
	}
	nw := NewNetwork(Config{Seed: 5, N0: 64, D: 8, Alpha: 2, Epsilon: 1})
	defer nw.Shutdown()
	w := &arenaWatch{nw: nw}
	nw.net.SetTracer(w)
	r := rng.New(6)
	for e := range 3 {
		w.state = map[string]func() bool{}
		members := nw.Members()
		perm := r.Perm(len(members))
		leaves := make([]int, 8)
		joins := make([]JoinSpec, 8)
		for j := range leaves {
			leaves[j] = members[perm[j]]
			joins[j] = JoinSpec{Sponsor: members[perm[8+j]]}
		}
		if rep, _ := nw.RunEpoch(joins, leaves); !rep.Valid {
			t.Fatalf("epoch %d invalid", e)
		}
		if nw.plan.arena != nil {
			t.Fatalf("epoch %d: the plan keeps its arena", e)
		}
		runtime.GC()
		var held []string
		for name, alive := range w.state {
			if alive() {
				held = append(held, name)
			}
		}
		if len(held) > 0 {
			slices.Sort(held)
			t.Fatalf("epoch %d: %d of %d objects still reachable after RunEpoch, the first %q", e, len(held), len(w.state), held[0])
		}
		if !w.topo() {
			t.Fatalf("epoch %d: the adopted topology is unreachable", e)
		}
	}
}
