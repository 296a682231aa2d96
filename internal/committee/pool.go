package committee

import (
	"os"
	"runtime"
	"strconv"
	"sync"
)

// pool is the engine's persistent bulk-synchronous worker pool: it
// partitions each phase across S workers (the caller's goroutine acts
// as worker 0). Workers own contiguous index ranges (Engine.Chunk),
// write only state owned by their range plus per-worker cells, and the
// engine merges cells in worker order — which equals the serial
// iteration order because the ranges are contiguous.
//
// Workers 1..S-1 are parked goroutines woken per phase, so a 1-worker
// pool spawns nothing. run performs no allocations, keeping the stacks
// at 0 allocs/round in steady state. The parked goroutines reference
// only the pool, never the engine — the engine is attached for the
// duration of one run call — so an unreferenced engine (and its pool,
// once close runs or the guard's finalizer fires) can be collected even
// when Close was never called.
type pool struct {
	wake   []chan int // one per worker 1..S-1
	wg     sync.WaitGroup
	e      *Engine
	closed bool
}

// maxShards bounds the worker count.
const maxShards = 64

// newPool returns a pool of the given width, which must be in
// [1, maxShards].
func newPool(shards int) *pool {
	p := &pool{wake: make([]chan int, shards-1)}
	for w := range p.wake {
		ch := make(chan int)
		p.wake[w] = ch
		go func() {
			for phase := range ch {
				p.e.runShard(phase, w+1)
				p.wg.Done()
			}
		}()
	}
	return p
}

// run executes one phase: every worker calls e.runShard(phase, w) for
// its own w, and run returns when all are done. The channel sends
// publish the caller's writes to the workers; wg.Wait publishes the
// workers' writes back.
func (p *pool) run(e *Engine, phase int) {
	if len(p.wake) == 0 {
		e.runShard(phase, 0)
		return
	}
	p.e = e
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- phase
	}
	e.runShard(phase, 0)
	p.wg.Wait()
	p.e = nil
}

// close stops the parked workers. Idempotent; the pool must not be used
// afterwards.
func (p *pool) close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, ch := range p.wake {
		close(ch)
	}
}

// finalize arms a GC finalizer on owner that closes the pool when the
// owner becomes unreachable without an explicit Close — the safety net
// for short-lived overlay networks created by sweeps and tests. The
// parked workers hold no reference to the owner, so reachability is
// decided by the owner's other referents alone.
func (p *pool) finalize(owner any) {
	if len(p.wake) > 0 {
		runtime.SetFinalizer(owner, func(any) { p.close() })
	}
}

// defaultShards resolves a configured worker count: 0 consults the
// OVERLAYNET_SHARDS environment variable, then 1; the result is clamped
// to [1, maxShards].
func defaultShards(cfg int) int {
	if cfg == 0 {
		cfg = envShards()
	}
	return min(max(cfg, 1), maxShards)
}

// envShards reads the OVERLAYNET_SHARDS default once.
var envShards = sync.OnceValue(func() int {
	v, _ := strconv.Atoi(os.Getenv("OVERLAYNET_SHARDS"))
	return v
})
