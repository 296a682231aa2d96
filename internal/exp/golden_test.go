package exp

import (
	"fmt"
	"hash/fnv"
	"testing"

	"overlaynet/internal/sim"
)

// TestPointerDoublingGolden pins E14's protocol — the round in which
// node 0 learns its antipode and the per-round work log — to digests
// recorded while it was still a blocking coroutine ranging over a Go
// map; the counts never depended on that order, so the handler form
// must reproduce them at any shard count.
func TestPointerDoublingGolden(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
		want string
	}{
		{5, 64, "fd2b5b149d7e1118"},
		{11, 100, "db7254cd1b0adfd9"},
	} {
		for _, shards := range []int{1, 4} {
			net := sim.NewNetwork(sim.Config{Seed: tc.seed, Shards: shards})
			h := fnv.New64a()
			fmt.Fprintf(h, "%d\n", pointerDoublingRounds(net, tc.n))
			fmt.Fprintf(h, "%+v\n", net.Work())
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("seed=%d n=%d shards=%d: digest %s, recorded %s", tc.seed, tc.n, shards, got, tc.want)
			}
		}
	}
}
