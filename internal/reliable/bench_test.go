package reliable

import (
	"runtime"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

// floodNode sends fanout pre-boxed tokens per protocol round to fixed
// targets (the send pattern of the kernel benchmarks), one value shared
// by every node: what a phase costs beyond the kernel's own delivery is
// the endpoint.
type floodNode struct {
	n       int
	payload any
}

const floodFanout = 4

func (f *floodNode) OnRound(ctx *sim.Ctx, _ []sim.Message) bool {
	idx := int(ctx.ID()) - 1
	for j := 0; j < floodFanout; j++ {
		ctx.Send(sim.NodeID((idx+j*7+1)%f.n+1), f.payload, 32)
	}
	return true
}

// floodNet spawns n wrapped floodNodes at the configuration's automatic
// stretch and returns the endpoints with the network.
func floodNet(tb testing.TB, n int, latSpec string, drop float64) (*sim.Network, []*Endpoint, int) {
	tb.Helper()
	lat, err := sim.ParseLatency(latSpec)
	if err != nil {
		tb.Fatal(err)
	}
	net := sim.NewNetwork(sim.Config{Seed: 1, Shards: 1, SizeHint: n, Latency: lat})
	if inj := (fault.Spec{Seed: 1, Drop: drop}).Injector(); inj != nil {
		net.SetInjector(inj)
	}
	net.DisableWorkLog()
	cfg := On()
	stretch := cfg.EffectiveStretch(lat)
	h := &floodNode{n: n, payload: any(0)}
	eps := make([]*Endpoint, n)
	for i := range eps {
		eps[i] = Wrap(1, cfg, stretch, h)
		net.SpawnHandler(sim.NodeID(i+1), eps[i])
	}
	return net, eps, stretch
}

// BenchmarkEndpoint measures one protocol phase of a wrapped flood per
// iteration and reports it per enveloped protocol message: idle is the
// layer on a perfect synchronous network (acks only, stretch 1), loaded
// the bench workload's shape — uniform:1,3 spread and 5 % drops at the
// automatic stretch, so retransmits, stale discards and duplicate
// copies are all in the mix.
func BenchmarkEndpoint(b *testing.B) {
	const n = 2000
	for _, bc := range []struct {
		name, lat string
		drop      float64
	}{
		{"idle", "", 0},
		{"loaded", "uniform:1,3", 0.05},
	} {
		b.Run(bc.name, func(b *testing.B) {
			net, _, stretch := floodNet(b, n, bc.lat, bc.drop)
			defer net.Shutdown()
			net.Run(4 * stretch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			net.Run(b.N * stretch)
			b.StopTimer()
			runtime.ReadMemStats(&after)
			msgs := float64(b.N * n * floodFanout)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
		})
	}
}
