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
		// Small batches, whose digits are short, over spans that need
		// several passes of them.
		{2, 0, 1}, {2, -1 << 31, 1<<31 - 1}, {3, 5000, 5002}, {19, 1024, 6024},
		{19, 0, 1<<24 + 1}, {57, 300, 300 + 70001*127}, {255, 0, 1 << 16}, {256, 0, 1 << 16},
	} {
		a := make([]int32, c.n)
		for i := range a {
			a[i] = int32(c.lo + int64(r.Uint64n(uint64(c.hi-c.lo+1))))
		}
		want := slices.Clone(a)
		slices.Sort(want)
		got := radixSort(a, make([]int32, c.n), make([]int32, 1<<digitBits(c.n)+1), slices.Min(a), slices.Max(a))
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
// node's lifetime (core.coreNode), so a completed run keeps nothing: the
// samples are the caller's, and the schedule and request scratch are the
// Run's, which the driver drops.
func TestSamplerReleasesScratch(t *testing.T) {
	var samplers []*runSampler
	mk := hgraphSamplers()
	c := diffCase{n: coreShape.N, p: coreShape}
	c.run(3, func() nodeSampler {
		samplers = append(samplers, mk().(*runSampler))
		return samplers[len(samplers)-1]
	})
	mT := coreShape.Samples()
	for v, s := range samplers {
		if got := len(s.Samples()); got != mT {
			t.Fatalf("node %d: %d samples, want %d", v, got, mT)
		}
		if s.HGraphSampler.run != nil {
			t.Fatalf("node %d: sampler keeps its Run after completion", v)
		}
		for _, c := range sliceCaps(reflect.ValueOf(s.HGraphSampler), nil) {
			if c > 0 {
				t.Fatalf("node %d: sampler retains a slice of %d bytes after completion", v, c)
			}
		}
	}
}

// footprintProbe is a sampler that checks, after every call, the bytes
// of all slices it holds against the limit of the run's stage.
type footprintProbe struct {
	runSampler
	t                  *testing.T
	started, collected int
}

func (f *footprintProbe) check(done bool) {
	limit, stage := f.started, "Start"
	if done {
		limit, stage = 0, "completion"
	} else if f.step >= 2 {
		limit, stage = f.collected, "the first collect"
	}
	held := 0
	for _, c := range sliceCaps(reflect.ValueOf(f.HGraphSampler), nil) {
		held += c
	}
	if held > limit {
		f.t.Errorf("a node holds %d bytes after %s, want at most %d", held, stage, limit)
	}
}

func (f *footprintProbe) Start(ctx *sim.Ctx, p HGraphParams, self int, neighbors []int,
	idOf func(int) sim.NodeID, fail *int, stats *BudgetStats) {
	f.runSampler.Start(ctx, p, self, neighbors, idOf, fail, stats)
	f.check(false)
}

func (f *footprintProbe) HandleRound(ctx *sim.Ctx, inbox []sim.Message, onOther func(sim.Message)) bool {
	done := f.runSampler.HandleRound(ctx, inbox, onOther)
	f.check(done)
	return done
}

// TestSamplerRunFootprint bounds what a sampler holds during a run of
// the core_churn shape: the caller's neighbor list until the first
// collect, then M_1 in storage of its own size, then nothing. The
// schedule, the 2·m_2 request targets (12.3 kB) and the counters of a
// radix digit (8.2 kB) are the run's, one per network; each node held
// its own schedule and targets before, and radixSort its own counters.
func TestSamplerRunFootprint(t *testing.T) {
	p := coreShape
	var run *Run
	c := diffCase{n: p.N, p: p}
	c.run(3, func() nodeSampler {
		return &footprintProbe{runSampler: runSampler{run: &run}, t: t,
			started:   8 * p.D,
			collected: 4 * p.M(1),
		}
	})
	held := 0
	for _, c := range sliceCaps(reflect.ValueOf(*run), nil) {
		held += c
	}
	if limit := 8*p.M(2) + 4*(1<<digitBits(p.M(2))+1) + 8*(p.T()+1); held > limit {
		t.Errorf("the run holds %d bytes, want at most 2·m_2 targets, a digit's counters and the schedule, %d", held, limit)
	}
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
	b := c.run(7, hgraphSamplers()).Budget
	batches := float64(b.ReqBatches+b.RespBatches) / float64(p.N)
	t.Logf("%.1f allocations and %.0f batches per node, T = %d", perNode, batches, p.T())
	if limit := float64(12 * p.T()); perNode > limit || limit > batches/4 {
		t.Fatalf("%.1f allocations per node, want at most 12·T = %.0f (batches per node: %.0f)", perNode, limit, batches)
	}
}
