package sampling

import (
	"reflect"
	"slices"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// coreShape is the schedule core.RunEpoch derives at n = 1024 for one
// joiner per sponsor (the bench's core_churn workload): T = 6,
// m_0 = 13 851, m_T = 19.
var coreShape = HGraphParams{N: 1024, D: 8, Alpha: 2, Epsilon: 1, C: 1.9}

func TestRadixSortMatchesSort(t *testing.T) {
	r := rng.New(5)
	for _, c := range []struct {
		n      int
		lo, hi int64 // value range, inclusive
	}{
		{1, 7, 7}, {19, 0, 1023}, {513, 0, 1023}, {4617, 1024, 1031},
		{300, 0, 255}, {300, 0, 256}, {300, 5000, 5000 + 1<<16}, {300, 0, 1<<24 + 1},
		{300, -1000, 1000}, {300, -1 << 31, 1<<31 - 1}, {64, 42, 42},
	} {
		a := make([]int32, c.n)
		for i := range a {
			a[i] = int32(c.lo + int64(r.Uint64n(uint64(c.hi-c.lo+1))))
		}
		want := slices.Clone(a)
		slices.Sort(want)
		got := radixSort(a, make([]int32, c.n))
		if !slices.Equal(got, want) {
			t.Errorf("n=%d range [%d,%d]: not sorted", c.n, c.lo, c.hi)
		}
	}
}

// sliceCaps appends the capacity, in bytes, of every slice reachable
// from v through struct fields.
func sliceCaps(v reflect.Value, caps []int) []int {
	switch v.Kind() {
	case reflect.Slice:
		caps = append(caps, v.Cap()*int(v.Type().Elem().Size()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			caps = sliceCaps(v.Field(i), caps)
		}
	}
	return caps
}

// TestSamplerReleasesScratch: node programs embed a sampler for the
// node's lifetime (core.coreNode), so a completed run may keep nothing
// larger than its result — the 55 KB an int32 M_0 of the core_churn
// shape took would be +143 % on that workload's 38.8 kB of live bytes
// per node.
func TestSamplerReleasesScratch(t *testing.T) {
	var samplers []*HGraphSampler
	c := diffCase{n: coreShape.N, p: coreShape}
	c.run(3, func() nodeSampler {
		samplers = append(samplers, &HGraphSampler{})
		return samplers[len(samplers)-1]
	})
	mT := coreShape.Samples()
	for v, s := range samplers {
		if got := len(s.Samples()); got != mT {
			t.Fatalf("node %d: %d samples, want %d", v, got, mT)
		}
		for _, c := range sliceCaps(reflect.ValueOf(*s), nil) {
			if c > 4*mT {
				t.Fatalf("node %d: sampler retains a slice of %d bytes > 4·m_T = %d after completion", v, c, 4*mT)
			}
		}
	}
}

// footprintProbe is a sampler that checks, after every call, the bytes
// of all slices it holds against the limit of the run's stage.
type footprintProbe struct {
	HGraphSampler
	t                       *testing.T
	started, collected, end int
}

func (f *footprintProbe) check(done bool) {
	limit, stage := f.started, "Start"
	if done {
		limit, stage = f.end, "completion"
	} else if f.step >= 2 {
		limit, stage = f.collected, "the first collect"
	}
	held := 0
	for _, c := range sliceCaps(reflect.ValueOf(f.HGraphSampler), nil) {
		held += c
	}
	if held > limit {
		f.t.Errorf("node %d holds %d bytes after %s (step %d), want at most %d", f.self, held, stage, f.step, limit)
	}
}

func (f *footprintProbe) Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
	idOf func(int) sim.NodeID, fail *int, stats *BudgetStats) {
	f.HGraphSampler.Start(ctx, p, self, neighbors, idOf, fail, stats)
	f.check(false)
}

func (f *footprintProbe) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool {
	done := f.HGraphSampler.HandleRound(ctx, inbox, onOther)
	f.check(done)
	return done
}

// TestSamplerRunFootprint bounds what a sampler holds during a run of
// the core_churn shape: M_0 at a byte per entry beside the 2·m_2 request
// scratch (26.2 kB; an int32 M_0 with 2·m_1 of scratch was 92.3 kB),
// then M_1 in storage of its own size, then the samples alone. The 64
// bytes are the schedule's; until the first collect the caller's
// neighbor list is referenced too.
func TestSamplerRunFootprint(t *testing.T) {
	p := coreShape
	c := diffCase{n: p.N, p: p}
	c.run(3, func() nodeSampler {
		return &footprintProbe{t: t,
			started:   p.M(0) + 8*p.M(2) + 64 + 8*p.D,
			collected: 4*p.M(1) + 8*p.M(2) + 64,
			end:       4 * p.Samples(),
		}
	})
}

// TestSamplerAllocsPerRun: a run allocates per iteration (the serve
// round's two arrays, the kernel's queue doublings), not per batch.
func TestSamplerAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are exact only without -race: the race runtime allocates on its own")
	}
	p := HGraphParams{N: 256, D: 8, Alpha: 2, Epsilon: 1, C: 1.9}
	h := hgraph.Random(rng.New(1), p.N, p.D)
	perNode := testing.AllocsPerRun(3, func() { RapidHGraph(7, h, p) }) / float64(p.N)

	c := diffCase{n: p.N, p: p}
	b := c.run(7, func() nodeSampler { return &HGraphSampler{} }).Budget
	batches := float64(b.ReqBatches+b.RespBatches) / float64(p.N)
	t.Logf("%.1f allocations and %.0f batches per node, T = %d", perNode, batches, p.T())
	if limit := float64(12 * p.T()); perNode > limit || limit > batches/4 {
		t.Fatalf("%.1f allocations per node, want at most 12·T = %.0f (batches per node: %.0f)", perNode, limit, batches)
	}
}
