package exp

import (
	"fmt"
	"runtime"
	"time"

	"overlaynet/internal/metrics"
)

// S3ScaleOverlay measures the §5/§6 overlay stacks themselves at the
// sizes the handler kernel reached in S2: one full reorganization epoch
// of protocol rounds per size, up to n = 1,000,000 members. The dense
// slot/bitset layout keeps the per-node footprint near the ~1 KB/node
// budget, and the sharded round pipeline (Options.Shards) only changes
// wall-clock speed — every protocol column is byte-identical at any
// -procs/OVERLAYNET_SHARDS setting. At n = 1M the sampling slack is tightened
// (§5 ε = 0.25, §6 ε = 0.1): the default ε = 1 budget schedule is
// exponentially oversized at that scale and would dominate memory, not
// the protocol state under test.
//
// Columns: rounds actually stepped (one epoch); supernode count;
// bytes/node-round — the measured supernode-message volume
// (Stats.Messages at ~8 bytes per wire message) averaged over members
// and rounds, the same quantity for both stacks; and wall-clock
// rounds/sec plus end-of-run heap, both masked in regression
// comparisons (MaskWallClock).
func S3ScaleOverlay(o Options) *metrics.Table {
	t := metrics.NewTable(
		"S3  Scale — §5/§6 overlay stacks, full epochs (dense slots, sharded rounds)",
		"stack", "n", "rounds", "supers", "bytes/node-round", "rounds/sec (wall)", "heapMB (wall)")
	ns := o.sizes([]int{10000}, []int{100000, 1000000})
	// Memory-heavy, one network at a time, as in S1.
	o.Procs = 1
	t.AddRows(mustRows(RunRows(o, len(ns)*len(overlayKinds), func(cell int) [][]string {
		n, k := ns[cell/len(overlayKinds)], overlayKinds[cell%len(overlayKinds)]
		eps := 1.0
		if n >= 1000000 {
			eps = k.eps1M
		}
		nw := k.build(o.envDelivery(), cellSeed(o.Seed, uint64(n), uint64(k.sec)), n, -1, eps)
		rounds := nw.EpochRounds()
		start := time.Now()
		for i := 0; i < rounds; i++ {
			nw.step()
		}
		wall := time.Since(start)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		msgs := nw.health().messages
		nw.Close()
		return [][]string{metrics.Row(k.name, n, rounds, nw.supers(),
			fmt.Sprintf("%.1f", float64(msgs)*8/float64(n)/float64(rounds)),
			fmt.Sprintf("%.2f", float64(rounds)/wall.Seconds()),
			fmt.Sprintf("%.0f", float64(ms.HeapInuse)/1e6))}
	})))
	return t
}
