package splitmerge

import (
	"reflect"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/rng"
)

// TestSnapshotSharedPerState pins the snapshot contract: a snapshot shows
// the committed view as it was when it was published, for as long as it is
// held; the snapshots of one view share one copy; only a commit makes a new
// one, since churn, corruption and repair edit the live groups, not the
// view; and between commits Snapshot allocates only its header.
func TestSnapshotSharedPerState(t *testing.T) {
	nw := New(Config{Seed: 5, N0: 256, MeasureEvery: -1, Shards: 1})
	defer nw.Close()
	type published struct {
		snap *dos.Snapshot
		want dos.Snapshot
	}
	var held []published
	publish := func(stage string) *dos.Snapshot {
		t.Helper()
		s := nw.Snapshot()
		h := nw.eng.ViewAt(nw.eng.Epoch)
		var want dos.Snapshot
		for _, g := range h.Groups {
			want.Groups = append(want.Groups, append(g[:0:0], g...))
		}
		for _, a := range h.Adj {
			want.Adj = append(want.Adj, append(a[:0:0], a...))
		}
		if s.Round != nw.Round() || !reflect.DeepEqual(s.Groups, want.Groups) || !reflect.DeepEqual(s.Adj, want.Adj) {
			t.Fatalf("%s: snapshot of round %d is not the committed view", stage, s.Round)
		}
		held = append(held, published{s, want})
		for _, p := range held {
			if !reflect.DeepEqual(p.snap.Groups, p.want.Groups) || !reflect.DeepEqual(p.snap.Adj, p.want.Adj) {
				t.Fatalf("%s: the snapshot of round %d changed after it was published", stage, p.snap.Round)
			}
		}
		return s
	}
	shares := func(a, b *dos.Snapshot) bool {
		return &a.Groups[0] == &b.Groups[0] && &a.Adj[0] == &b.Adj[0]
	}
	stepToCommit := func() *dos.Snapshot {
		t.Helper()
		prev := publish("before the commit")
		for epoch := nw.Epoch(); nw.Epoch() == epoch; {
			nw.Step(nil)
			if s := publish("a round"); nw.Epoch() == epoch && !shares(prev, s) {
				t.Fatalf("round %d: a snapshot between commits made its own copy", s.Round)
			}
		}
		s := publish("the commit")
		if shares(prev, s) {
			t.Fatalf("round %d: the commit's snapshot shares the last epoch's copy", s.Round)
		}
		return s
	}

	a := publish("epoch 0")
	nw.Step(nil)
	if b := publish("epoch 0, a round later"); a == b || !shares(a, b) {
		t.Fatalf("two snapshots of one view: shared header %v, shared lists %v", a == b, shares(a, b))
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _ = nw.Snapshot() }); n > 1 {
			t.Fatalf("Snapshot between commits: %v allocations, want at most the header", n)
		}
	}

	nw.ReplaceMembers(rng.New(9), 32)
	prev := stepToCommit()
	for i, pick := range []uint64{7 << 8, 1 | 3<<8, 2 | 40<<8 | 3<<40, 3 | 11<<8} {
		if nw.CorruptState(pick) == "" {
			t.Fatalf("corruption %d changed nothing", i)
		}
		if s := publish("a corruption"); !shares(prev, s) {
			t.Fatalf("corruption %d: the committed view did not change, yet the snapshot made a copy", i)
		}
	}
	if nw.RepairBalance() == 0 {
		t.Fatal("the repair fixed no label")
	}
	if s := publish("the repair"); !shares(prev, s) {
		t.Fatal("the repair left the committed view as it was, yet the snapshot made a copy")
	}
	// By now the history ring recycles the first views' arenas: the held
	// snapshots must not be them.
	for range 3 {
		stepToCommit()
	}
}
