package reliable

import (
	"fmt"
	"hash/fnv"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

// goldNode is the golden transcript's protocol: per protocol round it
// folds its inbox — sender, payload and bits, in delivery order — into
// a running FNV-64a, and sends three tokens whose values and one of
// whose targets depend on that fold, so a reordered, duplicated or
// missing delivery changes every later round too. Failure reports are
// part of the transcript.
type goldNode struct {
	n    int // wrapped nodes are ids 1..n
	hash uint64
	acc  uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (g *goldNode) fold(vs ...uint64) {
	for _, v := range vs {
		for s := 0; s < 64; s += 8 {
			g.hash = (g.hash ^ (v >> s & 0xff)) * fnvPrime
		}
	}
}

func (g *goldNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	g.fold(uint64(ctx.Round()), uint64(len(inbox)))
	for i := range inbox {
		m := &inbox[i]
		v := uint64(m.Payload.(token).N)
		g.fold(uint64(m.From), v, uint64(m.Bits))
		g.acc = g.acc*1000003 + v + uint64(m.From)
	}
	id := int(ctx.ID())
	for j, off := range [3]int{1, 5, int(g.acc % uint64(g.n))} {
		ctx.Send(sim.NodeID((id-1+off)%g.n+1), token{N: int(g.acc%997) + j}, 32+j)
	}
	return true
}

func (g *goldNode) OnDeliveryFailure(to sim.NodeID) { g.fold(^uint64(0), uint64(to)) }

// goldPasser is the unwrapped sender sharing the network: a plain token
// a round to the wrapped nodes in turn, never enveloped, never acked.
type goldPasser struct{ n int }

func (p *goldPasser) OnRound(ctx *sim.Ctx, _ []sim.Message) bool {
	r := ctx.Round()
	ctx.Send(sim.NodeID(r%p.n+1), token{N: 100000 + r}, 24)
	return true
}

// endpointTranscript runs the golden network and digests everything the
// endpoint can influence: every inner handler's transcript, the work
// log, the reliability totals and the deferred-message count.
func endpointTranscript(t *testing.T, latSpec string, spec fault.Spec, shards int) uint64 {
	t.Helper()
	const n, phases, seed = 24, 30, 11
	lat, err := sim.ParseLatency(latSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{On: true, RTO: DefaultRTO, Backoff: DefaultBackoff, Budget: 1}
	stretch := cfg.EffectiveStretch(lat)
	net := sim.NewNetwork(sim.Config{Seed: seed, Shards: shards, Latency: lat})
	spec.Seed = seed
	net.SetInjector(spec.Injector())
	nodes := make([]*goldNode, n)
	for v := range nodes {
		nodes[v] = &goldNode{n: n, hash: fnvOffset}
		net.SpawnHandler(sim.NodeID(v+1), Wrap(seed, cfg, stretch, nodes[v]))
	}
	net.SpawnHandler(sim.NodeID(n+1), &goldPasser{n: n})
	net.Run(StretchedRounds(phases, stretch))
	h := fnv.New64a()
	for _, g := range nodes {
		fmt.Fprintf(h, "%x %x\n", g.hash, g.acc)
	}
	for _, w := range net.Work() {
		fmt.Fprintf(h, "%+v\n", w)
	}
	fmt.Fprintf(h, "%+v %d\n", net.ReliabilityStats(), net.DeferredMessages())
	net.Shutdown()
	return h.Sum64()
}

// TestEndpointTranscriptGolden pins the endpoint's observable behaviour
// — what the inner handler is fed at every phase boundary, in which
// order, what fails, and every message the layer puts on the wire — to
// digests recorded before its data path was rebuilt around phase-scoped
// state. The network mixes wrapped nodes (budget 1, so the failure path
// runs), duplicates, drops, spread, and one pass-through sender.
func TestEndpointTranscriptGolden(t *testing.T) {
	cases := []struct {
		name, lat string
		spec      fault.Spec
		want      uint64
	}{
		{"sync-dup-stretch1", "", fault.Spec{Dup: 0.2}, 0x94398056dce8201f},
		{"uniform-drop-dup", "uniform:1,3", fault.Spec{Drop: 0.05, Dup: 0.05}, 0x1d722f20813bd970},
		{"lognorm-drop", "lognorm:0,0.6", fault.Spec{Drop: 0.05}, 0xc663c0265746fae6},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 4} {
			if got := endpointTranscript(t, tc.lat, tc.spec, shards); got != tc.want {
				t.Errorf("%s shards=%d: transcript digest %#016x, want %#016x", tc.name, shards, got, tc.want)
			}
		}
	}
}
