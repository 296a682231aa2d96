package splitmerge

import (
	"slices"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/trace"
)

// damaged builds a small warm network of 64 + 2·data[0] nodes and
// applies the damage burst the rest of data encodes, three bytes per
// step: a CorruptState pick of either kind, or a label lifted to its
// parent — the overlap no CorruptState kind makes.
func damaged(data []byte) *Network {
	n0 := 128
	if len(data) > 0 {
		n0, data = 64+2*int(data[0]), data[1:]
	}
	nw := New(Config{Seed: 9, N0: n0, MeasureEvery: -1})
	for r := 0; r < nw.EpochRounds(); r++ {
		nw.Step(nil)
	}
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], uint64(data[1]), uint64(data[2])
		switch a % 3 {
		case 0: // desync one index entry
			nw.CorruptState(b<<8 | c<<40)
		case 1: // relabel a group to its 0-child
			nw.CorruptState(1 | b<<8)
		default:
			if s := nw.supers[int(b)%len(nw.supers)]; s.label.Dim() > 0 {
				s.label = s.label.Parent()
				nw.sortSupers()
				nw.fillVidTables()
			}
		}
	}
	return nw
}

// burst is a random network size and k random damage steps.
func burst(seed uint64, k int) []byte {
	r := rng.New(seed)
	out := make([]byte, 1+3*k)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

// FuzzRepairLabels: after any damage burst, RepairMembership then
// RepairBalance leave the label-coverage, membership, eq1-group-size and
// dim-spread checkers clean; a second call of each repair fixes nothing;
// and RepairBalance fixed nothing exactly when the label rule held
// before it ran.
func FuzzRepairLabels(f *testing.F) {
	f.Add([]byte{0})                    // 64 nodes, no damage
	f.Add([]byte{224})                  // 512 nodes, no damage
	f.Add([]byte{32, 1, 0, 0})          // one hole
	f.Add([]byte{32, 1, 3, 0, 1, 3, 0}) // the same group relabeled twice
	f.Add([]byte{32, 2, 1, 0, 1, 1, 0}) // an overlap, then a hole
	f.Add([]byte{32, 0, 5, 1, 2, 7, 0}) // an index desync, then an overlap
	for i, k := range []int{3, 10, 50, 128} {
		f.Add(burst(uint64(i+1), k))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nw := damaged(data)
		defer nw.Close()
		held := nw.checkLabelCoverage() == nil
		nw.RepairMembership()
		if fixes := nw.RepairBalance(); (fixes == 0) != held {
			t.Fatalf("RepairBalance made %d fixes; the label rule held before: %v", fixes, held)
		}
		rec := trace.New()
		eng := audit.NewEngine("test", 9, 1, rec)
		nw.SetAudit(eng)
		eng.RunNow(nw.Round())
		for _, inv := range []string{"label-coverage", "membership", "eq1-group-size", "dim-spread"} {
			if eng.CountFor(inv) != 0 {
				t.Fatalf("%s after repair: %+v (labels %v)", inv, rec.Events(), nw.labels())
			}
		}
		if m, b := nw.RepairMembership(), nw.RepairBalance(); m != 0 || b != 0 {
			t.Fatalf("second repair made %d membership and %d label fixes", m, b)
		}
	})
}

// TestLabelRuleSeesHoleAboveSiblings: labels whose own siblings are all
// covered can still leave a hole higher up (the 8 labels 1xyz leave 0
// bare). The label rule walks each label's path to the root, so the
// checker reports it and the repair closes it.
func TestLabelRuleSeesHoleAboveSiblings(t *testing.T) {
	nw := New(Config{Seed: 9, N0: 128, MeasureEvery: -1})
	defer nw.Close()
	if len(nw.supers) != 8 {
		t.Fatalf("%d groups, want 8", len(nw.supers))
	}
	for i, s := range nw.supers {
		s.label = hypercube.MakeLabel(uint64(1|i<<1), 4)
	}
	nw.sortSupers()
	if nw.checkLabelCoverage() == nil {
		t.Fatalf("labels %v passed the label rule", nw.labels())
	}
	if fixes := nw.RepairBalance(); fixes == 0 || nw.checkLabelCoverage() != nil {
		t.Fatalf("repair made %d fixes and left labels %v", fixes, nw.labels())
	}
}

// TestRepairAtEveryPhase: a RepairBalance at any round of an epoch in
// which joiners are pending, the reorganization window between the
// assignment round and the install included, loses and duplicates no
// node at the next commit and leaves the membership and label-coverage
// checkers clean. The joiners push groups over 2c·d, so the repair's
// normalization splits them and the committees the assignment gathered
// for no longer line up with the tree.
func TestRepairAtEveryPhase(t *testing.T) {
	const n0 = 128
	probe := New(Config{Seed: 3, N0: n0, MeasureEvery: -1})
	er := probe.EpochRounds()
	probe.Close()
	for p := 0; p < er; p++ {
		nw := New(Config{Seed: 3, N0: n0, MeasureEvery: -1})
		want := nw.Members()
		for i := 0; i < n0/2; i++ {
			want = append(want, nw.Join(want[i]))
		}
		for i := 0; i < p; i++ {
			nw.Step(nil)
		}
		splits := nw.stats.Splits
		nw.RepairBalance()
		if p > 0 && nw.stats.Splits == splits {
			t.Fatalf("phase %d: the repair split nothing", p)
		}
		for nw.Epoch() == 0 {
			nw.Step(nil)
		}
		if got := nw.Members(); !slices.Equal(got, want) || nw.N() != len(want) {
			t.Fatalf("phase %d: %d members listed in %d group slots after the commit, want %d",
				p, len(got), nw.N(), len(want))
		}
		rec := trace.New()
		eng := audit.NewEngine("test", 9, 1, rec)
		nw.SetAudit(eng)
		eng.RunNow(nw.Round())
		for _, inv := range []string{"membership", "label-coverage"} {
			if eng.CountFor(inv) != 0 {
				t.Fatalf("phase %d: %s after the commit: %+v", p, inv, rec.Events())
			}
		}
		nw.Close()
	}
}
