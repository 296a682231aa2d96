package supernode

import (
	"reflect"
	"testing"

	"overlaynet/internal/dos"
	"overlaynet/internal/sim"
)

// TestSnapshotSharedPerState pins the snapshot contract: a snapshot shows
// the committed groups as they were when it was published, for as long as
// it is held; the snapshots of one state share one copy; every change of
// state — a commit, each list-editing corruption, a repair — makes a new
// one; and between changes Snapshot allocates only its header.
func TestSnapshotSharedPerState(t *testing.T) {
	nw := New(Config{Seed: 5, N: 512, MeasureEvery: -1, Shards: 1})
	defer nw.Close()
	type published struct {
		snap *dos.Snapshot
		want [][]sim.NodeID
	}
	var held []published
	publish := func(stage string) *dos.Snapshot {
		t.Helper()
		s := nw.Snapshot()
		want := make([][]sim.NodeID, len(nw.Groups()))
		for x, g := range nw.Groups() {
			want[x] = append([]sim.NodeID(nil), g...)
		}
		if s.Round != nw.Round() || !reflect.DeepEqual(s.Groups, want) || !reflect.DeepEqual(s.Adj, nw.adj) {
			t.Fatalf("%s: snapshot of round %d is not the live topology", stage, s.Round)
		}
		held = append(held, published{s, want})
		for _, h := range held {
			if !reflect.DeepEqual(h.snap.Groups, h.want) {
				t.Fatalf("%s: the snapshot of round %d changed after it was published", stage, h.snap.Round)
			}
		}
		return s
	}
	shares := func(a, b *dos.Snapshot) bool { return &a.Groups[0] == &b.Groups[0] }
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
		t.Fatalf("two snapshots of one state: shared header %v, shared groups %v", a == b, shares(a, b))
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(100, func() { _ = nw.Snapshot() }); n > 1 {
			t.Fatalf("Snapshot between commits: %v allocations, want at most the header", n)
		}
	}

	prev := stepToCommit()
	// Erase (pick%3 = 1) and duplicate (pick%3 = 2) each edit one list.
	for i, hi := range []uint64{7 << 8, 40<<8 | 3<<40, 301 << 8, 77<<8 | 9<<40} {
		if nw.CorruptState(hi-hi%3+1+uint64(i%2)) == "" {
			t.Fatalf("corruption %d edited nothing", i)
		}
		s := publish("a corruption")
		if shares(prev, s) {
			t.Fatalf("corruption %d: the snapshot shares the copy made before it", i)
		}
		prev = s
	}
	if nw.RepairGroups() == 0 {
		t.Fatal("the repair fixed nothing")
	}
	if s := publish("the repair"); shares(prev, s) {
		t.Fatal("the repair's snapshot shares the copy made before it")
	}
	stepToCommit()
}
