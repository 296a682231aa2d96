package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"
)

// scale selects a workload's sizing. full is what BENCHMARK.json
// records; lite keeps every n but times fewer operations, for the
// per-layer numbers of workloads that are not the one under
// measurement in a single-workload traced run; smoke (n <= 2048) is for
// tests and CI.
type scale int

const (
	full scale = iota
	lite
	smoke
)

// pick returns the value for the scale.
func (s scale) pick(fullV, liteV, smokeV int) int {
	return [...]int{full: fullV, lite: liteV, smoke: smokeV}[s]
}

// block is one fresh instance of a workload: built, warmed up and
// timed once. End-to-end metrics are medians over blocks.
type block struct {
	SetupS     float64   `json:"setup_s"`
	WallS      float64   `json:"wall_s"`
	NodeRounds float64   `json:"node_rounds"`
	LiveBytes  float64   `json:"live_bytes"`
	Nodes      float64   `json:"nodes"`
	Ops        int       `json:"ops"`
	Failed     int       `json:"failed"`
	Digest     string    `json:"sim_digest"`
	OpMS       []float64 `json:"op_ms"`

	// vals are counts taken at the boundaries of the timed section
	// (messages, allocations, reliability totals); spans are the traced
	// pass's record. Both feed the per-layer metrics only.
	vals  map[string]float64
	spans []span
}

// bestWall is the timed wall of the blocks' fixed work with the
// machine's interference taken out as far as the blocks allow: every
// operation counted at the fastest any block ran it, plus the smallest
// remainder (time between operations) of any block. Blocks of one
// workload run identical operations, so this is best-of-B timing
// applied operation by operation; with one block it is that block's
// wall.
func bestWall(blocks []*block) float64 {
	ops := len(blocks[0].OpMS)
	rest := blocks[0].WallS
	for _, b := range blocks {
		ops = min(ops, len(b.OpMS))
		rest = min(rest, b.WallS-sum(b.OpMS)/1e3)
	}
	wall := rest
	for i := 0; i < ops; i++ {
		best := blocks[0].OpMS[i]
		for _, b := range blocks {
			best = min(best, b.OpMS[i])
		}
		wall += best / 1e3
	}
	return wall
}

// metricOf computes one end-to-end metric from fresh blocks of one
// workload. Times are best-of-blocks (the noise here is interference,
// which only ever adds); live bytes hardly vary and take the median.
func metricOf(name string, blocks []*block) float64 {
	switch name {
	case "sweep_wall_s":
		return bestWall(blocks)
	case "node_rounds_per_s":
		return ratio(blocks[0].NodeRounds, bestWall(blocks))
	case "live_bytes_per_node":
		xs := make([]float64, len(blocks))
		for i, b := range blocks {
			xs[i] = ratio(b.LiveBytes, b.Nodes)
		}
		return median(xs)
	case "setup_s":
		best := blocks[0].SetupS
		for _, b := range blocks {
			best = min(best, b.SetupS)
		}
		return best
	}
	panic("bench: unknown end-to-end metric " + name)
}

// blockCtx is what a workload sees while it runs one block.
type blockCtx struct {
	seed  uint64
	scale scale
	// noLateness is the negative control: the DoS adversary sees the
	// topology in real time, so connectivity must break.
	noLateness bool
	tr         *tracer
	b          *block
	h          hash.Hash64

	sectionStart time.Time
	baseLive     uint64
	mallocs      uint64
}

func newBlockCtx(seed uint64, sc scale, traced, noLateness bool) *blockCtx {
	c := &blockCtx{seed: seed, scale: sc, noLateness: noLateness, h: fnv.New64a(),
		b: &block{vals: map[string]float64{}}}
	if traced {
		c.tr = newTracer()
	}
	c.release()
	return c
}

func (c *blockCtx) traced() bool { return c.tr != nil }

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func liveHeap() uint64 {
	runtime.GC()
	return memStats().HeapAlloc
}

// measureLive adds what the block holds live now — what survives a
// collection, less what was live before the block built anything — and
// the size of what holds it. A block that builds several networks calls
// it once per network; bytes and nodes add up.
func (c *blockCtx) measureLive(nodes int) (bytes float64) {
	if live := liveHeap(); live > c.baseLive {
		bytes = float64(live - c.baseLive)
	}
	c.b.LiveBytes += bytes
	c.b.Nodes += float64(nodes)
	return bytes
}

// startTimed ends a set-up section (construct + spawn + warm-up),
// measures the live heap of the nodes just built (skipped for 0), and
// starts a timed section. Set-up and wall add up over a block's
// sections.
func (c *blockCtx) startTimed(nodes int) (liveBytes float64) {
	c.b.SetupS += time.Since(c.sectionStart).Seconds()
	if nodes > 0 {
		liveBytes = c.measureLive(nodes)
	}
	if c.traced() {
		c.mallocs = memStats().Mallocs
	}
	c.sectionStart = time.Now()
	return liveBytes
}

// endTimed closes the timed section and returns the heap allocations
// made in it, which only the traced pass counts (0 otherwise).
func (c *blockCtx) endTimed() (allocs float64) {
	c.b.WallS += time.Since(c.sectionStart).Seconds()
	if c.traced() {
		allocs = float64(memStats().Mallocs - c.mallocs)
	}
	return allocs
}

// release starts a set-up section on a clean slate: whatever an earlier
// section's network held is collected and no longer counts towards the
// live heap measured next.
func (c *blockCtx) release() {
	c.baseLive = liveHeap()
	c.sectionStart = time.Now()
}

// op times one operation. It is timed in both passes (one clock pair
// per operation of a millisecond or more); only the traced pass
// records it, and the calls inside it, as spans.
func (c *blockCtx) op(name string, f func() (failed bool)) {
	s := c.tr.begin(name)
	t := time.Now()
	bad := f()
	c.b.OpMS = append(c.b.OpMS, float64(time.Since(t))/1e6)
	c.tr.end(s)
	c.b.Ops++
	if bad {
		c.b.Failed++
	}
}

// call wraps one call into a layer's public function in a span.
func (c *blockCtx) call(name string, f func()) {
	s := c.tr.begin(name)
	f()
	c.tr.end(s)
}

// digest folds exact simulated statistics into the block's sim_digest.
func (c *blockCtx) digest(format string, args ...any) {
	fmt.Fprintf(c.h, format, args...)
}

func (c *blockCtx) finish() *block {
	c.b.Digest = fmt.Sprintf("%016x", c.h.Sum64())
	if c.tr != nil {
		c.b.spans = c.tr.spans
	}
	return c.b
}
