package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// epochTranscript runs a fixed churn schedule through a Network at the
// given shard count and serializes everything observable: each epoch's
// report and final-id list, plus the membership and per-member
// neighborhoods after every epoch.
func epochTranscript(shards int) string {
	nw := NewNetwork(Config{Seed: 42, N0: 24, D: 6, Shards: shards})
	defer nw.Shutdown()
	out := ""
	schedule := []struct {
		joins  int
		leaves []int
	}{
		{joins: 3, leaves: nil},
		{joins: 0, leaves: []int{2, 7}},
		{joins: 2, leaves: []int{0, 25}},
		{joins: 1, leaves: []int{11}},
	}
	for e, step := range schedule {
		members := nw.Members()
		joins := make([]JoinSpec, step.joins)
		for j := range joins {
			joins[j] = JoinSpec{Sponsor: members[(e*5+j*3)%len(members)]}
		}
		rep, ids := nw.RunEpoch(joins, step.leaves)
		out += fmt.Sprintf("epoch %d: report=%+v new-ids=%v\n", e, rep, ids)
		ms := append([]int(nil), nw.Members()...)
		sort.Ints(ms)
		out += fmt.Sprintf("members=%v\n", ms)
		for _, m := range ms {
			out += fmt.Sprintf("  %d -> %v\n", m, nw.NeighborsOf(m))
		}
	}
	return out
}

// TestEpochTranscriptGolden pins the §4 protocol's absolute output: the
// digest was recorded while the protocol still existed twice (blocking
// coroutines and handlers, compared byte for byte by the test this one
// replaces), so it stands for both — epoch reports, joiner id
// assignments, membership and topology over four epochs of joins and
// leaves — and every shard count must reproduce it.
func TestEpochTranscriptGolden(t *testing.T) {
	const recorded = "a47f9af9811b177e"
	for _, shards := range []int{1, 4} {
		h := fnv.New64a()
		h.Write([]byte(epochTranscript(shards)))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != recorded {
			t.Errorf("shards=%d: transcript digest %s, recorded %s", shards, got, recorded)
		}
	}
}
