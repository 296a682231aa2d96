package committee

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// toy is the smallest stack the engine can run: the k-ary d-cube with
// one three-member committee per vertex (vertex x: ids 3x+1..3x+3).
type toy struct {
	e       *Engine
	members [][]sim.NodeID
	verts   [][]int32
	mi      []int
	// lateCoins counts Phase-1 symbols served at iterations >= 2: draws
	// from a list that carried over, which only a ragged cube has.
	lateCoins int
}

func newToy(k, d, shards int) *toy {
	n := 1
	for range d {
		n *= k
	}
	ty := &toy{}
	for T := bits.Len(uint(d - 1)); len(ty.mi) <= T; { // d·2^T, …, 2d, d
		ty.mi = append(ty.mi, d<<(T-len(ty.mi)))
	}
	e := New(1, shards)
	ty.e = e
	e.RespFrom = uint64(n) + 1
	e.Arity = k
	e.Grow(3 * n)
	seed := rng.New(9)
	for x := 0; x < n; x++ {
		ty.verts = append(ty.verts, []int32{int32(x)})
		var g []sim.NodeID
		for k := 1; k <= 3; k++ {
			id := sim.NodeID(3*x + k)
			g = append(g, id)
			e.NodeGroup[id-1] = int32(x)
			e.NodeR[id-1] = *seed.Split(uint64(id))
		}
		ty.members = append(ty.members, g)
	}
	e.Commit(ty.members).Adj = make([][]int32, n)
	e.Reset(n, d, ty.mi)
	clear(e.Owner) // vertex u belongs to committee 0 for all the engine cares
	return ty
}

// epoch runs Algorithm 2's 2T+1 primitive rounds with the given nodes
// blocked throughout and returns the transcript — per round the counters
// and every vertex's queue, then the samples — and the counters' totals.
// While every vertex is simulated, what a round leaves queued must be
// what it generated, as gated.
func (ty *toy) epoch(t *testing.T, blocked map[sim.NodeID]bool) (string, Counters) {
	e := ty.e
	var b strings.Builder
	var sum Counters
	for pr := 0; pr < 2*len(ty.mi)-1; pr++ {
		e.Begin(blocked, ty.members, ty.verts)
		coins := 0
		for _, l := range e.lists {
			coins += int(l.coins)
		}
		e.Sample(pr)
		if pr%2 == 1 && pr >= 3 {
			for _, l := range e.lists {
				coins -= int(l.coins)
			}
			ty.lateCoins += coins
		}
		c := e.End()
		fmt.Fprintf(&b, "%d %v %+v:", pr, e.Leaders, c)
		queued := 0
		for u := range ty.verts {
			reqs, resps := e.Queued(u)
			fmt.Fprintf(&b, " %d/%d", reqs, resps)
			queued += reqs + resps
		}
		b.WriteByte('\n')
		if want := int(c.Messages) - c.FaultDrops + c.FaultDups; queued != want && !slices.Contains(e.Owner, -1) {
			t.Fatalf("round %d: %d messages queued, want %d generated − %d dropped + %d duplicated",
				pr, queued, c.Messages, c.FaultDrops, c.FaultDups)
		}
		sum.Stalls += c.Stalls
		sum.FaultDrops += c.FaultDrops
		sum.FaultDups += c.FaultDups
		sum.Messages += c.Messages
	}
	fmt.Fprintf(&b, "%v\n", e.Samples)
	return b.String(), sum
}

// TestSegmentOrderIsSerialOrder runs the toy epoch at worker counts that
// divide the cube, do not, and exceed it, with a committee stalled, a
// vertex nobody simulates, a gate that drops and duplicates, and a node
// that leads two committees (their draws come from one RNG, in committee
// order): every draw, queue length, counter and sample must match the
// single worker's, and what is queued must be what was generated, as
// gated. At d = 5 the cube is ragged: list 5 carries over, still packed,
// and is served at iteration 3.
func TestSegmentOrderIsSerialOrder(t *testing.T) {
	blocked := map[sim.NodeID]bool{4: true, 5: true, 6: true, 10: true} // committee 1 stalls; 3 elects its second member
	for _, sc := range []struct {
		name   string
		d      int
		spec   fault.Spec
		unown  bool
		shared bool
	}{
		{name: "plain", d: 4},
		{name: "gate", d: 4, spec: fault.Spec{Seed: 5, Drop: 0.1, Dup: 0.1}},
		{name: "unowned-vertex", d: 4, unown: true},
		{name: "shared-leader", d: 4, shared: true},
		{name: "ragged", d: 5},
		{name: "ragged-gate", d: 5, spec: fault.Spec{Seed: 5, Drop: 0.1, Dup: 0.1}},
	} {
		var want string
		for _, shards := range []int{1, 2, 5, 40} {
			ty := newToy(2, sc.d, shards)
			ty.e.SetFaults(sc.spec)
			if sc.unown {
				ty.e.Owner[5] = -1
			}
			if sc.shared { // what a corruption that duplicates node 1 into committee 9 leaves
				ty.members[9] = append([]sim.NodeID{1}, ty.members[9]...)
			}
			got, sum := ty.epoch(t, blocked)
			ty.e.Close()
			if shards == 1 {
				want = got
				if gated := sc.spec.Drop > 0; sum.Stalls != 2*len(ty.mi)-1 || sum.Messages == 0 || gated != (sum.FaultDrops > 0) || gated != (sum.FaultDups > 0) {
					t.Fatalf("%s: %+v does not exercise a stalled committee and the gate as intended", sc.name, sum)
				}
				if ragged := sc.d == 5; ragged != (ty.lateCoins > 0) {
					t.Fatalf("%s: %d coins served at iterations >= 2", sc.name, ty.lateCoins)
				}
			} else if got != want {
				t.Errorf("%s: shards=%d diverges from the single worker", sc.name, shards)
			}
		}
	}
}

func TestElection(t *testing.T) {
	ty := newToy(2, 2, 3)
	defer ty.e.Close()
	e := ty.e
	e.Begin(map[sim.NodeID]bool{1: true, 7: true, 8: true, 9: true}, ty.members, ty.verts)
	if got, want := e.Leaders, []int32{1, 3, -1, 9}; !slices.Equal(got, want) {
		t.Fatalf("leaders %v, want %v (lowest non-blocked slot, −1 = stalled)", got, want)
	}
	if c := e.End(); c.Stalls != 1 || e.Blocked != 4 {
		t.Fatalf("stalls %d blocked %d, want 1 and 4", c.Stalls, e.Blocked)
	}
	// Available means non-blocked in this round and the last: node 1 is
	// still out, nodes 7..9 too, node 2 newly blocked.
	e.Begin(map[sim.NodeID]bool{2: true}, ty.members, ty.verts)
	if got, want := e.Leaders, []int32{2, 3, -1, 9}; !slices.Equal(got, want) {
		t.Fatalf("leaders %v one round after the attack, want %v", got, want)
	}
	e.Rotate = true
	seen := map[int32]bool{}
	for i := 0; i < 12; i++ {
		e.Begin(nil, ty.members, ty.verts)
		seen[e.Leaders[3]] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rotation visited leaders %v of committee 3, want all three members", seen)
	}
}

// TestRouteGatherOrder: what Gather returns is in source-worker order,
// then generation order, and is counted once.
func TestRouteGatherOrder(t *testing.T) {
	ty := newToy(2, 2, 3)
	defer ty.e.Close()
	e := ty.e
	e.Begin(nil, ty.members, ty.verts)
	e.Route(2, 1, 30)
	e.Route(0, 1, 10)
	e.Route(1, 1, 20)
	e.Route(0, 1, 11)
	e.Route(1, 3, 99)
	if got := e.Gather(0, 1, nil); !slices.Equal(got, []sim.NodeID{10, 11, 20, 30}) {
		t.Fatalf("gathered %v", got)
	}
	if got := e.Gather(0, 1, nil); len(got) != 0 {
		t.Fatalf("second gather returned %v, want the segments emptied", got)
	}
	if c := e.End(); c.Messages != 4 {
		t.Fatalf("%d messages counted, want 4", c.Messages)
	}
}

// TestHistoryPrunesUnreferencedViews: a view lives exactly as long as
// some member's ViewEpoch names it, its arenas are recycled, and the
// current epoch's view always stays.
func TestHistoryPrunesUnreferencedViews(t *testing.T) {
	ty := newToy(2, 2, 1)
	e := ty.e
	commit := func() {
		e.Epoch++
		e.Commit(ty.members).Adj = make([][]int32, len(ty.members))
	}
	for i := 0; i < 5; i++ { // nobody catches up: every view is still held, the ring grows past 4
		commit()
	}
	if base, n := e.Views(); base != 0 || n != 6 {
		t.Fatalf("ring holds [%d, %d+%d), want all six epochs", base, base, n)
	}
	for i := range e.ViewEpoch {
		e.ViewEpoch[i] = 4
	}
	e.NodeGroup[0] = -1 // a slot that left does not hold a view
	e.ViewEpoch[0] = 1
	oldest := &e.ViewAt(0).Groups[0][0]
	commit()
	if base, n := e.Views(); base != 4 || n != 3 {
		t.Fatalf("ring holds [%d, %d+%d), want epochs 4..6", base, base, n)
	}
	for i := range e.ViewEpoch {
		e.ViewEpoch[i] = 7 // everybody receives the next assignment at once
	}
	commit()
	if base, n := e.Views(); base != 7 || n != 1 {
		t.Fatalf("ring holds [%d, %d+%d), want only the current epoch 7", base, base, n)
	}
	if &e.ViewAt(7).Groups[0][0] != oldest && !slices.ContainsFunc(e.free, func(v View) bool { return &v.Groups[0][0] == oldest }) {
		t.Fatal("the pruned view's arenas were not recycled")
	}
}

// TestLoopSchedule drives the toy through three epochs of the Loop with
// four reorganization rounds, a committee blocked every fifth round, at
// each measurement cadence: the epoch is 2(2T+1) sampling rounds, which
// simulate Algorithm 2 on the even ones, plus the four, Assign runs once
// per epoch on its first round after the sampling and Commit once on its
// last, connectivity is measured on exactly the rounds the cadence
// selects, and the totals are the sums of the rounds' counters.
func TestLoopSchedule(t *testing.T) {
	const reorg, epochs = 4, 3
	for _, every := range []int{-1, 1, 3} {
		ty := newToy(2, 4, 2)
		e := ty.e
		var assigns, commits []int // the rounds the hooks ran in
		l := NewLoop(e, every, Hooks{
			Reorg:      reorg,
			Committees: func() ([][]sim.NodeID, [][]int32) { return ty.members, ty.verts },
			Assign: func() {
				assigns = append(assigns, e.Round)
				if e.Samples[0] == nil {
					t.Errorf("round %d: Assign ran before the sampling finished", e.Round)
				}
			},
			Commit: func() {
				commits = append(commits, e.Round)
				e.Epoch++
				e.Commit(ty.members).Adj = make([][]int32, len(ty.members))
				e.Reset(len(ty.verts), 4, ty.mi)
				clear(e.Owner)
			},
			CatchUp: func(w int) {
				lo, hi := e.Chunk(len(ty.members), w)
				for _, g := range ty.members[lo:hi] {
					for _, id := range g {
						e.CatchUp(int32(id-1), g)
					}
				}
			},
		})
		sampling := 2 * (2*(len(ty.mi)-1) + 1)
		rounds := sampling + reorg
		if got := l.EpochRounds(); got != rounds {
			t.Fatalf("every=%d: EpochRounds() = %d, want 2(2T+1)+%d = %d", every, got, reorg, rounds)
		}
		var want Totals
		for r := 1; r <= epochs*rounds; r++ {
			var blocked map[sim.NodeID]bool
			if r%5 == 0 {
				blocked = map[sim.NodeID]bool{4: true, 5: true, 6: true}
			}
			rep := l.Step(blocked)
			c := e.End() // the round's counters, still in the cells
			want.add(&c)
			want.Rounds++
			if measure := every > 0 && r%every == 0; rep.Measured != measure {
				t.Errorf("every=%d round %d: measured %v, want %v", every, r, rep.Measured, measure)
			}
			if rep.Measured {
				want.Measured++
				if !rep.Connected {
					want.Disconnected++
				}
			}
			// Only a simulation half-round, an even one of the sampling part,
			// sends messages.
			if p := (r - 1) % rounds; c.Messages > 0 && (p >= sampling || p%2 == 1) {
				t.Errorf("every=%d round %d: %d messages in epoch round %d", every, r, c.Messages, p)
			}
			// Committee 1 is unavailable in a blocked round and the next.
			if stalled := r%5 == 0 || r%5 == 1 && r > 5; rep.Round != r || rep.Stalls != c.Stalls || stalled != (c.Stalls > 0) {
				t.Errorf("every=%d round %d: report %+v, counters %+v", every, r, rep, c)
			}
		}
		var wantAssigns, wantCommits []int
		for k := 0; k < epochs; k++ {
			wantAssigns = append(wantAssigns, k*rounds+sampling+1)
			wantCommits = append(wantCommits, (k+1)*rounds)
		}
		if !slices.Equal(assigns, wantAssigns) || !slices.Equal(commits, wantCommits) {
			t.Errorf("every=%d: Assign in rounds %v, Commit in %v; want %v and %v",
				every, assigns, commits, wantAssigns, wantCommits)
		}
		if got := l.Totals(); got != want || l.Epoch() != epochs || l.Round() != epochs*rounds {
			t.Errorf("every=%d: totals %+v after epoch %d round %d, want %+v after %d and %d",
				every, got, l.Epoch(), l.Round(), want, epochs, epochs*rounds)
		}
		if every == 1 && (want.Disconnected == 0 || want.Messages == 0) {
			t.Errorf("totals %+v: the toy should disconnect and send messages", want)
		}
		l.Close()
	}
}
