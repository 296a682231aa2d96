// Sharded intra-round execution. With Config.Shards = S > 1, the
// compute (receive + handler execution) and send steps of a round are
// partitioned across S workers (the driver goroutine acts as worker 0).
//
// Determinism argument: canonical inbox order — (sender spawn order,
// send sequence) — is a property of the partition, not the schedule.
// In the send step every worker scans *all* send logs in worker order
// (spawn order) but counts and scatters only the messages whose receiver
// slot falls in its contiguous slot range, into its own arena; since each
// inbox is written by exactly one worker, which visits senders in the
// same spawn order the serial kernel does, and the sort is stable, every
// inbox ends up byte-identical for any S. Accounting is partitioned by
// contiguous sender-position ranges with per-shard partial sums merged
// in shard order (sums and maxes are associative, and sample slices
// concatenated in shard order equal the serial iteration order), and
// tracer drop events are buffered per shard and replayed by the driver
// in shard order, which again equals the serial call order. The compute
// step is partitioned by position range the same way; handlers run
// inline on the worker owning their node's position, touch only their
// own node's state, their worker's log, and round-constant shared
// structures (the id index and other slots' identity fields), and
// draw randomness from per-node generators, so the partition cannot
// change any node's behavior.
package sim

import (
	"sync"
	"time"
)

const (
	phaseCompute = iota
	phaseSend
)

// dropEvent is a deferred Tracer.MessageDropped call, buffered by shard
// workers and replayed in canonical order by the driver.
type dropEvent struct {
	from, to NodeID
	bits     int
	reason   DropReason
}

// shardAcc is one worker's per-round accumulator. The slices are reused
// round after round, so the sharded path also reaches an allocation
// steady state. The pad keeps adjacent accumulators on separate cache
// lines while workers write them concurrently.
type shardAcc struct {
	messages  int
	totalBits int64
	maxBits   int64
	anyHalted bool

	recvDrops    []dropEvent // blocked-receiver delivery-round drops, position order
	sendDrops    []dropEvent // send-step drops, sender position order
	dups         []dupEvent  // injected duplications, sender position order
	inboxSamples []int64
	bitsSamples  []int64

	// deferred counts this worker's accounting range's messages that the
	// event scheduler parked beyond the next round. A pure function of
	// (seed, round, edge) like the delay itself, so — unlike the phase
	// wall times below — it is deterministic and may flow into
	// byte-compared artifacts.
	deferred int64

	// rel holds this worker's reliability activity (control-lane sends
	// from its sender range, node reports from its compute range). All
	// fields are sums, so merging the shard accumulators in any order
	// reproduces the serial totals.
	rel ReliabilityRoundStats

	// Phase wall times, collected when a ShardObserver is attached.
	// These are the only nondeterministic values a round produces; they
	// reach tools solely through the ShardObserver hook and must never
	// enter byte-compared output (trace.Recorder keeps them out of its
	// flight ring and JSONL/table bytes; see that package's tests).
	computeNS, sendNS int64

	_ [64]byte
}

func (a *shardAcc) reset() {
	a.messages = 0
	a.totalBits = 0
	a.maxBits = 0
	a.anyHalted = false
	a.recvDrops = a.recvDrops[:0]
	a.sendDrops = a.sendDrops[:0]
	a.dups = a.dups[:0]
	a.inboxSamples = a.inboxSamples[:0]
	a.bitsSamples = a.bitsSamples[:0]
	a.deferred = 0
	a.rel = ReliabilityRoundStats{}
	a.computeNS, a.sendNS = 0, 0
}

// shardPool is the persistent worker pool: Shards-1 goroutines parked
// on per-worker wake channels (worker 0 is the driver itself). It is
// started lazily on the first sharded Step and stopped by Shutdown.
type shardPool struct {
	wake []chan int // one per worker 1..Shards-1; carries the phase to run
	wg   sync.WaitGroup
}

func (n *Network) ensurePool() {
	if n.pool != nil {
		return
	}
	p := &shardPool{wake: make([]chan int, n.shards-1)}
	n.pool = p
	for w := 1; w < n.shards; w++ {
		ch := make(chan int)
		p.wake[w-1] = ch
		go func(w int, ch chan int) {
			for phase := range ch {
				n.runShard(phase, w)
				p.wg.Done()
			}
		}(w, ch)
	}
}

func (n *Network) stopPool() {
	if n.pool == nil {
		return
	}
	for _, ch := range n.pool.wake {
		close(ch)
	}
	n.pool = nil
}

// runPhase fans one phase out to all workers and waits for completion.
// The channel send publishes all driver writes (node table, bitsets,
// order) to the workers; wg.Wait publishes the workers' writes back.
func (n *Network) runPhase(phase int) {
	p := n.pool
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- phase
	}
	n.runShard(phase, 0)
	p.wg.Wait()
}

// chunk splits [0, total) into contiguous per-worker ranges.
func chunk(total, shards, w int) (lo, hi int) {
	return total * w / shards, total * (w + 1) / shards
}

// runShard executes one worker's share of a phase. Position ranges
// (spawn order) drive the compute step and the accounting half of the
// send step; slot ranges drive the delivery half. Both are fixed for
// the duration of a round (spawn and reap happen between rounds).
func (n *Network) runShard(phase, w int) {
	var t0 time.Time
	timed := n.shardObs != nil
	if timed {
		t0 = time.Now()
	}
	acc := &n.acc[w]
	switch phase {
	case phaseCompute:
		acc.reset()
		plo, phi := chunk(len(n.order), n.shards, w)
		n.computeRange(plo, phi, w, acc)
		if timed {
			acc.computeNS = time.Since(t0).Nanoseconds()
		}
	case phaseSend:
		plo, phi := chunk(len(n.order), n.shards, w)
		slo, shi := chunk(len(n.slots), n.shards, w)
		acc.messages, acc.totalBits, acc.maxBits, acc.anyHalted =
			n.sendRange(w, plo, phi, int32(slo), int32(shi), acc)
		if timed {
			acc.sendNS = time.Since(t0).Nanoseconds()
		}
	}
}

// stepSharded is the Shards > 1 body of Step: the same compute / send
// round, with both phases fanned out to the pool and the per-shard
// results merged deterministically.
func (n *Network) stepSharded() (messages int, totalBits, maxBits int64, anyHalted bool) {
	n.ensurePool()
	n.runPhase(phaseCompute)
	n.runPhase(phaseSend)

	tr := n.tracer
	for w := range n.acc {
		a := &n.acc[w]
		messages += a.messages
		totalBits += a.totalBits
		if a.maxBits > maxBits {
			maxBits = a.maxBits
		}
		anyHalted = anyHalted || a.anyHalted
		n.roundDeferred += a.deferred
		n.roundRel.add(&a.rel)
	}
	if tr != nil {
		// Replay buffered tracer work in shard order. Shard ranges are
		// contiguous in the serial iteration order, so concatenation
		// reproduces the exact serial tracer call sequence: all
		// delivery-round drops in receiver position order, then all
		// send-step drops in sender position order.
		for w := range n.acc {
			for _, d := range n.acc[w].recvDrops {
				tr.MessageDropped(n.round, d.reason, d.from, d.to, d.bits)
			}
		}
		for w := range n.acc {
			for _, d := range n.acc[w].sendDrops {
				tr.MessageDropped(n.round, d.reason, d.from, d.to, d.bits)
			}
		}
		if n.faultObs != nil {
			for w := range n.acc {
				for _, d := range n.acc[w].dups {
					n.faultObs.MessageDuplicated(n.round, d.from, d.to, d.bits, d.copies)
				}
			}
		}
		for w := range n.acc {
			n.traceInbox = append(n.traceInbox, n.acc[w].inboxSamples...)
			n.traceBits = append(n.traceBits, n.acc[w].bitsSamples...)
		}
		if n.shardObs != nil {
			for w := range n.acc {
				a := &n.acc[w]
				n.shardObs.ShardRound(n.round, w, a.computeNS/1e3, a.sendNS/1e3)
			}
		}
	}
	return messages, totalBits, maxBits, anyHalted
}
