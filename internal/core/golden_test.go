package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"
)

// epochTranscript runs a fixed churn schedule through a Network and
// serializes everything observable: each epoch's report and final-id
// list, plus the membership and per-member neighborhoods after every
// epoch.
func epochTranscript() string {
	nw := NewNetwork(Config{Seed: 42, N0: 24, D: 6})
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

// TestEpochTranscriptGolden pins the §4 protocol's absolute output:
// epoch reports, joiner id assignments, membership and topology over four
// epochs of joins and leaves. The digest was first recorded while the
// protocol still existed twice (blocking coroutines and handlers,
// compared byte for byte), re-recorded when Algorithm 1's M_0 became
// a budget read by fresh draws, and again when EpochReport lost its
// always-zero SecondEigenvalue field: the transcript with
// " SecondEigenvalue:0" deleted from each report is byte-identical to
// the earlier one.
func TestEpochTranscriptGolden(t *testing.T) {
	const recorded = "58456a10c39a36e0"
	h := fnv.New64a()
	h.Write([]byte(epochTranscript()))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != recorded {
		t.Errorf("transcript digest %s, recorded %s", got, recorded)
	}
}
