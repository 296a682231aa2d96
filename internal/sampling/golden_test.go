package sampling

import (
	"fmt"
	"hash/fnv"
	"testing"

	"overlaynet/internal/hgraph"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// runDigest runs one driver with newNetwork tapped and returns the
// FNV-64a digest of its whole result struct followed by the work log of
// the network it ran on.
func runDigest(run func() any) string {
	var net *sim.Network
	newNetwork = func(cfg sim.Config) *sim.Network {
		net = sim.NewNetwork(cfg)
		return net
	}
	defer func() { newNetwork = sim.NewNetwork }()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", run())
	fmt.Fprintf(h, "%+v\n", net.Work())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDrivers pins the absolute output of every distributed
// sampling driver except RapidHGraph (whose data path has its own frozen
// reference): the digests were recorded while RapidHypercube, RapidKAry,
// RapidRegular and the two baseline walks were still blocking coroutines,
// so they hold every draw, sample, failure count and per-round work
// entry of that form.
func TestGoldenDrivers(t *testing.T) {
	torus := TorusAdjacency(8)
	hg := hgraph.Random(rng.New(3), 64, 8)
	hadj := make([][]int, hg.N())
	for v := range hadj {
		hadj[v] = hg.Neighbors(v)
	}
	regular := func(adj [][]int) func(uint64) any {
		return func(seed uint64) any {
			return *RapidRegular(seed, adj, HGraphParams{N: 64, Epsilon: 1, C: 1, WalkOverride: 16})
		}
	}
	kary := func(k int) func(uint64) any {
		return func(seed uint64) any {
			return *RapidKAry(seed, KAryParams{K: k, Dim: 4, Epsilon: 1, C: 1})
		}
	}
	for _, tc := range []struct {
		name string
		run  func(seed uint64) any
		want [2]string // seeds 5 and 11
	}{
		{"RapidHypercube/dim=8", func(seed uint64) any {
			return *RapidHypercube(seed, HypercubeParams{Dim: 8, Epsilon: 1, C: 1})
		}, [2]string{"fbcef2d2e65d17f4", "011dc1040fd1f68c"}},
		{"RapidKAry/k=2", kary(2), [2]string{"d5d0469923508545", "a413046c01170840"}},
		{"RapidKAry/k=3", kary(3), [2]string{"4f4002b880bccadc", "6c431c3dd4a61af6"}},
		{"RapidRegular/torus", regular(torus), [2]string{"f005f5220bff5b2a", "d1b576b04167ea9e"}},
		{"RapidRegular/hgraph", regular(hadj), [2]string{"77aa381e232de1c4", "b7caef1b21e4794a"}},
		{"BaselineWalkHGraph", func(seed uint64) any {
			return *BaselineWalkHGraph(seed, hg, 4, 10)
		}, [2]string{"b7bcaf534943d4aa", "22cc0692b21985dc"}},
		{"BaselineWalkHypercube", func(seed uint64) any {
			return *BaselineWalkHypercube(seed, 6, 4)
		}, [2]string{"13a381dd8da8592f", "e128b44439dda851"}},
	} {
		for i, seed := range []uint64{5, 11} {
			if got := runDigest(func() any { return tc.run(seed) }); got != tc.want[i] {
				t.Errorf("%s seed=%d: digest %s, recorded %s", tc.name, seed, got, tc.want[i])
			}
		}
	}
}
