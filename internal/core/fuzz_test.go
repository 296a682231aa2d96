package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"
	"testing/quick"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/trace"
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
		for i := range nw.Members() {
			succ, _ := nw.rows(i)
			cur = append(cur, succ[0])
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
	rec := trace.New()
	nw.SetAudit(audit.NewEngine("test", 2, 1, rec))
	members := nw.Members()
	rep, _ := nw.RunEpoch(nil, members[:20])
	checkEpochHealthy(t, nw, rec, rep)
	if rep.NNew != 28 {
		t.Fatalf("mass leave epoch: %+v", rep)
	}
}

// payloadLedger is FuzzEpochUnderLatency's tap: it hashes a payload's
// fields when a node sends it and again at every delivery, and reports a
// payload that reads differently at delivery than at send, or one sent
// twice with different fields. Payloads are keyed by identity, so a
// payload slot rewritten while a late, duplicated or retransmitted copy
// is still in flight is caught at whichever end sees it second.
type payloadLedger struct {
	t      *testing.T
	spec   string
	sent   map[any]uint64
	failed bool
}

func (l *payloadLedger) tap(payload any, sent bool) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T %+v", payload, payload)
	sum := h.Sum64()
	want, seen := l.sent[payload]
	switch {
	case sent && !seen:
		l.sent[payload] = sum
	case seen && want != sum && !l.failed:
		l.failed = true
		l.t.Errorf("%s: payload %T now reads %+v, not what was sent", l.spec, payload, payload)
	}
}

// FuzzEpochUnderLatency runs two churned epochs under a latency model
// and message duplication, and fails on a panic, on a payload that
// reads differently at delivery than at send (payloadLedger), or on an
// invalid epoch whose Connected is not BuildGraph's verdict: a message
// may arrive rounds late, twice, in a phase that does not expect it, at
// a node with nothing to answer it with. The arguments decode to a
// seed, N0 ∈ [16, 128], D ∈ {6, 8}, a model (sync, const, uniform or
// lognorm, its parameters a and b as given; one sim.ParseLatency
// rejects ends the run), the reliable layer on or off, as many leavers
// and joiners as c/16 of the members, c ≤ 4, and a duplication rate
// (one fault.Spec rejects ends the run). The first two seeds are
// configurations in which a late boundary message reaches a node with
// no elements in its cycle; the last two put about one delay in seven
// at the 64-round clamp and duplicate one message in twenty, with the
// reliable layer off and on.
func FuzzEpochUnderLatency(f *testing.F) {
	f.Add(uint64(5), uint8(48), true, uint8(3), 1.0, 1.5, false, uint8(2), 0.0)
	f.Add(uint64(6), uint8(112), false, uint8(3), 1.0, 1.5, false, uint8(2), 0.0)
	f.Add(uint64(1), uint8(0), false, uint8(2), 0.5, 2.5, true, uint8(4), 0.0)
	f.Add(uint64(2), uint8(112), true, uint8(1), 2.0, 0.0, false, uint8(1), 0.0)
	f.Add(uint64(4), uint8(16), true, uint8(0), 0.0, 0.0, true, uint8(3), 0.0)
	f.Add(uint64(8), uint8(48), true, uint8(3), 2.0, 2.0, false, uint8(2), 0.05)
	f.Add(uint64(9), uint8(48), true, uint8(3), 2.0, 2.0, true, uint8(2), 0.05)
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, d8 bool, kind uint8, a, b float64, rel bool, c uint8, dup float64) {
		g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		spec := [...]string{"sync", "const:" + g(a), "uniform:" + g(a) + "," + g(b), "lognorm:" + g(a) + "," + g(b)}[kind%4]
		lat, err := sim.ParseLatency(spec)
		if err != nil {
			return
		}
		faults := fault.Spec{Seed: seed, Dup: dup}
		if faults.Validate() != nil {
			return
		}
		cfg := Config{Seed: seed, N0: 16 + int(n)%113, D: 6, Alpha: 2, Epsilon: 1, Latency: lat}
		if d8 {
			cfg.D = 8
		}
		if rel {
			cfg.Reliable = reliable.On()
		}
		nw := NewNetwork(cfg)
		defer nw.Shutdown()
		if inj := faults.Injector(); inj != nil {
			nw.SetInjector(inj)
		}
		ledger := &payloadLedger{t: t, spec: fmt.Sprintf("%s dup=%g", spec, dup), sent: map[any]uint64{}}
		nw.tap = ledger.tap
		r := rng.New(seed ^ 0xfeed)
		for range 2 {
			members := nw.Members()
			k := len(members) * int(c%5) / 16
			perm := r.Perm(len(members))
			leaves := make([]int, k)
			joins := make([]JoinSpec, k)
			for j := range leaves {
				leaves[j] = members[perm[j]]
				joins[j] = JoinSpec{Sponsor: members[perm[k+j]]}
			}
			rep, _ := nw.RunEpoch(joins, leaves)
			if rep.NNew != len(members) {
				t.Fatalf("%s: %d members after an epoch of %d joins and leaves, want %d", spec, rep.NNew, k, len(members))
			}
			if want := nw.BuildGraph().IsConnected(); !rep.Valid && rep.Connected != want {
				t.Fatalf("%s: an invalid epoch reports connected=%v, BuildGraph %v", spec, rep.Connected, want)
			}
		}
	})
}
