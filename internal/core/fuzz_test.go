package core

import (
	"testing"
	"testing/quick"

	"overlaynet/internal/audit"
	"overlaynet/internal/rng"
)

// TestChurnSequenceProperty drives the network with arbitrary join and
// leave sequences derived from fuzz input and asserts the structural
// guarantees of Theorems 4 and 5 after every epoch: valid Hamilton
// cycles, connectivity, and zero protocol failures.
func TestChurnSequenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed uint64, moves []uint8) bool {
		if len(moves) > 6 {
			moves = moves[:6]
		}
		nw := NewNetwork(Config{Seed: seed, N0: 24, D: 6})
		defer nw.Shutdown()
		r := rng.New(seed ^ 0xfeed)
		for _, mv := range moves {
			members := nw.Members()
			n := len(members)
			joins := int(mv % 8)
			leaves := int(mv / 8 % 8)
			if n-leaves+joins < 8 {
				leaves = 0
			}
			var js []JoinSpec
			leaving := map[int]bool{}
			var ls []int
			for len(ls) < leaves {
				id := members[r.Intn(n)]
				if !leaving[id] {
					leaving[id] = true
					ls = append(ls, id)
				}
			}
			for len(js) < joins {
				s := members[r.Intn(n)]
				if !leaving[s] {
					js = append(js, JoinSpec{Sponsor: s})
				}
			}
			rep, ids := nw.RunEpoch(js, ls)
			if !rep.Valid || !rep.Connected {
				return false
			}
			// Occasional sampling-budget underflows are expected at
			// n=24 (Lemma 7 is w.h.p. in n) and only degrade walk
			// quality; structural failures are never acceptable.
			if rep.FailureKinds[FailDoubling] != 0 || rep.FailureKinds[FailBound] != 0 ||
				rep.FailureKinds[FailAssign] != 0 || rep.FailureKinds[FailBudget] != 0 {
				return false
			}
			if len(ids) != joins || rep.NNew != n+joins-leaves {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestRepeatedEpochsKeepUniformity: the reconfigured topology is fresh
// every epoch — consecutive epochs must produce different successor
// assignments (the probability of a repeat is ~1/(n-1)! per cycle).
func TestRepeatedEpochsKeepUniformity(t *testing.T) {
	nw := NewNetwork(Config{Seed: 31, N0: 32, D: 6})
	defer nw.Shutdown()
	var prev []int32
	for e := 0; e < 4; e++ {
		rep, _ := nw.RunEpoch(nil, nil)
		if !rep.Valid {
			t.Fatalf("epoch %d invalid", e)
		}
		var cur []int32
		for _, id := range nw.Members() {
			cur = append(cur, nw.curSucc[id][0])
		}
		if prev != nil {
			same := 0
			for i := range cur {
				if cur[i] == prev[i] {
					same++
				}
			}
			if same == len(cur) {
				t.Fatalf("epoch %d produced an identical cycle", e)
			}
		}
		prev = cur
	}
}

// TestEpochReportWorkIsPolylog: the peak per-node communication work
// stays within a generous polylog envelope as n doubles (Theorem 4).
func TestEpochReportWorkIsPolylog(t *testing.T) {
	var last int64
	for _, n := range []int{64, 128, 256} {
		nw := NewNetwork(Config{Seed: 77, N0: n, D: 6})
		rep, _ := nw.RunEpoch(nil, nil)
		nw.Shutdown()
		if rep.MaxNodeBits <= 0 {
			t.Fatal("work not measured")
		}
		if last > 0 && rep.MaxNodeBits > 8*last {
			t.Fatalf("work grew super-polylog: %d -> %d when n doubled", last, rep.MaxNodeBits)
		}
		last = rep.MaxNodeBits
	}
}

// TestLeaverStillServesDuringItsLastEpoch: a leaving node must keep
// relaying during the reconfiguration it departs in (the paper requires
// leavers to participate); this is visible as a healthy epoch — no
// failure of a non-sampling kind — even when a large batch leaves at
// once.
func TestLeaverStillServesDuringItsLastEpoch(t *testing.T) {
	nw := NewNetwork(Config{Seed: 41, N0: 48, D: 6})
	defer nw.Shutdown()
	eng := audit.NewEngine("test", 2, 1, nil)
	nw.SetAudit(eng)
	members := nw.Members()
	rep, _ := nw.RunEpoch(nil, members[:20])
	checkEpochHealthy(t, nw, eng, rep)
	if rep.NNew != 28 {
		t.Fatalf("mass leave epoch: %+v", rep)
	}
}
