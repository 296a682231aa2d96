package sim

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
)

// floodNet builds a network of n coroutine nodes that each send fanout
// messages per round to deterministic targets, forever.
func floodNet(n, fanout int) *Network {
	net := NewNetwork(Config{Seed: 1})
	for i := 0; i < n; i++ {
		idx := i
		payload := any(idx) // pre-boxed so the benchmark measures the kernel
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for {
				for j := 0; j < fanout; j++ {
					to := NodeID((idx+j*7+1)%n + 1)
					ctx.Send(to, payload, 32)
				}
				ctx.NextRound()
			}
		})
	}
	return net
}

// floodBenchHandler is floodNet's send pattern as one shared handler
// value: per-node identity comes from the Ctx, so spawning a node costs
// no closure or boxed payload — the per-node footprint the n=1M rows
// measure is the kernel's own (slot + Ctx + its share of log and arena).
type floodBenchHandler struct {
	n, fanout int
	payload   any // one pre-boxed value shared by every send
}

func (h *floodBenchHandler) OnRound(ctx *Ctx, _ []Message) bool {
	idx := int(ctx.ID()) - 1
	for j := 0; j < h.fanout; j++ {
		to := NodeID((idx+j*7+1)%h.n + 1)
		ctx.Send(to, h.payload, 32)
	}
	return true
}

// randomFloodHandler is S2's shape: every round each node sends fanout
// messages to targets drawn uniformly from its own generator, so
// receivers are touched in random order.
type randomFloodHandler struct {
	n, fanout int
	payload   any
}

func (h *randomFloodHandler) OnRound(ctx *Ctx, _ []Message) bool {
	r := ctx.RNG()
	for j := 0; j < h.fanout; j++ {
		ctx.Send(NodeID(r.Intn(h.n)+1), h.payload, 32)
	}
	return true
}

// floodHandlerNet is floodNet with event-driven handler nodes: same
// deterministic send pattern, but no goroutine, channel pair, or stack
// per node.
func floodHandlerNet(n, fanout int) *Network {
	net := NewNetwork(Config{Seed: 1, SizeHint: n})
	h := &floodBenchHandler{n: n, fanout: fanout, payload: any(0)}
	for i := 0; i < n; i++ {
		net.SpawnHandler(NodeID(i+1), h)
	}
	return net
}

// BenchmarkStep measures the per-round cost of the simulator kernel
// under a flood pattern (every node sends every round) and a sparse
// pattern (1-in-16 nodes send), the two regimes the experiment drivers
// live in — each in both execution modes: "flood"/"sparse" rows run
// blocking coroutines through the adapter (a goroutine + channel pair
// per node), "handler" rows run the same flood as event-driven handlers
// inline on the kernel. The handler rows extend to n=1M, which the
// adapter mode cannot reach in this container's memory budget.
// Allocations per round must stay near zero in steady state: send logs
// and inbox arenas are overwritten in place. The cold-random row is the
// other regime (S2's): a fresh network's first 8 rounds, random
// targets, timed from the first Step — one op is all 8 rounds, spawn
// excluded — where the logs and the arena are still growing.
func BenchmarkStep(b *testing.B) {
	b.Run("cold-random/n=100k", func(b *testing.B) {
		const n, rounds = 100000, 8
		h := &randomFloodHandler{n: n, fanout: 4, payload: any(0)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net := NewNetwork(Config{Seed: uint64(i + 1), SizeHint: n})
			for v := 0; v < n; v++ {
				net.SpawnHandler(NodeID(v+1), h)
			}
			b.StartTimer()
			net.Run(rounds)
			b.StopTimer()
			net.Shutdown()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds*n*4), "ns/msg")
	})
	for _, bc := range []struct {
		name    string
		n       int
		fanout  int
		sparse  bool
		handler bool
	}{
		{"flood/n=1k", 1000, 4, false, false},
		{"flood/n=10k", 10000, 4, false, false},
		{"flood/n=100k", 100000, 4, false, false},
		{"sparse/n=1k", 1000, 4, true, false},
		{"sparse/n=10k", 10000, 4, true, false},
		{"sparse/n=100k", 100000, 4, true, false},
		{"handler/n=1k", 1000, 4, false, true},
		{"handler/n=10k", 10000, 4, false, true},
		{"handler/n=100k", 100000, 4, false, true},
		{"handler/n=1M", 1000000, 4, false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var net *Network
			switch {
			case bc.sparse:
				net = NewNetwork(Config{Seed: 1})
				for i := 0; i < bc.n; i++ {
					idx := i
					payload := any(idx)
					net.Spawn(NodeID(i+1), func(ctx *Ctx) {
						for {
							if idx%16 == 0 {
								for j := 0; j < bc.fanout; j++ {
									ctx.Send(NodeID((idx+j+1)%bc.n+1), payload, 32)
								}
							}
							ctx.NextRound()
						}
					})
				}
			case bc.handler:
				net = floodHandlerNet(bc.n, bc.fanout)
			default:
				net = floodNet(bc.n, bc.fanout)
			}
			net.DisableWorkLog()
			net.Run(2) // reach buffer steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Step()
			}
			b.StopTimer()
			if bc.n >= 100000 {
				// Steady-state footprint with the network still alive:
				// live heap per node after a forced collection, plus the
				// process-wide peak-RSS high-water mark.
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/float64(bc.n), "liveB/node")
				if mb := readPeakRSSMB(); mb > 0 {
					b.ReportMetric(mb, "peakRSS-MB")
				}
			}
			net.Shutdown()
		})
	}
}

// readPeakRSSMB returns the process's peak resident set size in MiB
// from /proc/self/status (VmHWM), or 0 where that is unavailable. It is
// a process-wide high-water mark — a coarse footprint note, not a
// per-benchmark measurement (bench/ measures live bytes per node).
func readPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(string(fields[1]), 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// BenchmarkStepAllocs isolates the allocation behavior of one steady
// -state round at n=1k flood, the case benchstat compares across
// revisions of the kernel. This is the nil-tracer path: it must stay at
// 0 allocs/op (TestNilTracerSteadyStateZeroAllocs asserts the same
// invariant in the regular test run).
func BenchmarkStepAllocs(b *testing.B) {
	net := floodNet(1000, 4)
	net.DisableWorkLog()
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

// BenchmarkStepTraced measures the same steady-state flood round with a
// counting tracer attached — the overhead of the observability hooks
// when enabled (go run ./bench reports the pair as
// trace.attached_ratio). After the first round the tracer path also reaches an
// allocation steady state: the distribution scratch buffers are reused.
func BenchmarkStepTraced(b *testing.B) {
	net := floodNet(1000, 4)
	net.DisableWorkLog()
	net.SetTracer(&countingTracer{})
	net.Run(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}

func BenchmarkSpawnShutdown(b *testing.B) {
	for _, n := range []int{1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				net := NewNetwork(Config{Seed: uint64(i)})
				for v := 0; v < n; v++ {
					net.Spawn(NodeID(v+1), func(ctx *Ctx) { ctx.NextRound() })
				}
				net.Run(1)
				net.Shutdown()
			}
		})
	}
}
