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
// the network it ran on, if it ran on one: the cube drivers run on the
// committee engine, which keeps no work log, and digest the result alone.
func runDigest(run func() any) string {
	var net *sim.Network
	newNetwork = func(cfg sim.Config) *sim.Network {
		net = sim.NewNetwork(cfg)
		return net
	}
	defer func() { newNetwork = sim.NewNetwork }()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n", run())
	if net != nil {
		fmt.Fprintf(h, "%+v\n", net.Work())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDrivers pins the absolute output of every distributed
// sampling driver except RapidHGraph (whose data path has its own frozen
// reference). The baseline-walk digests were recorded while those
// drivers were still blocking coroutines, so they hold every draw,
// sample, failure count and per-round work entry of that form; the
// RapidRegular digests, which hold the same, were re-recorded when
// Algorithm 1's M_0 became a budget read by fresh draws. The
// RapidHypercube and RapidKAry digests were recorded when the two moved
// to the committee engine and hold every sample and failure count.
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
			return *RapidHypercube(seed, KAryParams{K: 2, Dim: 8, Epsilon: 1, C: 1})
		}, [2]string{"fe6c028bbe09eab2", "1a4ea53a1bc20c29"}},
		{"RapidKAry/k=2", kary(2), [2]string{"da0a47de43d785f1", "e15356b170a673ad"}},
		{"RapidKAry/k=3", kary(3), [2]string{"22d444fbdbaaa555", "9a80f052756f09d4"}},
		{"RapidRegular/torus", regular(torus), [2]string{"9f4cfbeb164da8c0", "e61430c686782861"}},
		{"RapidRegular/hgraph", regular(hadj), [2]string{"bdf39ad47be9bec9", "0aafcd049eaea3ab"}},
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
