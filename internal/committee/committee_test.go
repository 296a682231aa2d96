package committee

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
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
			e.NodeR[id-1] = seed.Split(uint64(id))
		}
		ty.members = append(ty.members, g)
	}
	e.Reset(n, d, ty.mi)
	clear(e.Owner) // vertex u belongs to committee 0 for all the engine cares
	return ty
}

// loop returns the Loop over the toy with h's Committees, Adj and Prepare
// filled in — the toy's committees, no adjacency, and a Reset with every
// vertex owned — and commits the toy's committees as epoch 0.
func (ty *toy) loop(every int, h Hooks) *Loop {
	e := ty.e
	h.Committees = func() ([][]sim.NodeID, [][]int32) { return ty.members, ty.verts }
	h.Adj = func([][]int32) [][]int32 { return make([][]int32, len(ty.members)) }
	h.Prepare = func() {
		e.Reset(len(ty.verts), e.dim, ty.mi)
		clear(e.Owner)
	}
	l := NewLoop(e, every, h)
	l.Commit()
	return l
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

// TestRouteGatherOrder: what gather returns is in source-worker order,
// then generation order, and is counted once.
func TestRouteGatherOrder(t *testing.T) {
	ty := newToy(2, 2, 3)
	defer ty.e.Close()
	e := ty.e
	e.Begin(nil, ty.members, ty.verts)
	e.route(2, 1, 30)
	e.route(0, 1, 10)
	e.route(1, 1, 20)
	e.route(0, 1, 11)
	e.route(1, 3, 99)
	if got := e.gather(0, 1, nil); !slices.Equal(got, []sim.NodeID{10, 11, 20, 30}) {
		t.Fatalf("gathered %v", got)
	}
	if got := e.gather(0, 1, nil); len(got) != 0 {
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
	e.commit(ty.members).Adj = make([][]int32, len(ty.members)) // epoch 0
	commit := func() {
		e.Epoch++
		e.commit(ty.members).Adj = make([][]int32, len(ty.members))
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
// simulate Algorithm 2 on the even ones, plus the four; the assignment
// routes every member once on the first of them, counted as messages, and
// Install runs once per epoch on the last; connectivity is measured on
// exactly the rounds the cadence selects, and the totals are the sums of
// the rounds' counters. The toy keeps its committees: Install hands the
// gathered lists back.
func TestLoopSchedule(t *testing.T) {
	const reorg, epochs = 4, 3
	for _, every := range []int{-1, 1, 3} {
		ty := newToy(2, 4, 2)
		e := ty.e
		nodes := 3 * len(ty.members)
		var installs []int // the rounds Install ran in
		l := ty.loop(every, Hooks{
			Reorg: reorg,
			Install: func(next [][]sim.NodeID) [][]sim.NodeID {
				installs = append(installs, e.Round)
				if got := sumLen(next); got != nodes {
					t.Errorf("round %d: %d nodes gathered, want all %d", e.Round, got, nodes)
				}
				return next
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
			// A simulation half-round, an even one of the sampling part,
			// sends messages, and so does the assignment: one per member.
			switch p := (r - 1) % rounds; {
			case p == sampling && c.Messages != int64(nodes):
				t.Errorf("every=%d round %d: the assignment counted %d messages, want %d", every, r, c.Messages, nodes)
			case c.Messages > 0 && (p > sampling || p%2 == 1):
				t.Errorf("every=%d round %d: %d messages in epoch round %d", every, r, c.Messages, p)
			}
			// Committee 1 is unavailable in a blocked round and the next.
			if stalled := r%5 == 0 || r%5 == 1 && r > 5; rep.Round != r || rep.Stalls != c.Stalls || stalled != (c.Stalls > 0) {
				t.Errorf("every=%d round %d: report %+v, counters %+v", every, r, rep, c)
			}
		}
		var wantInstalls []int
		for k := 0; k < epochs; k++ {
			wantInstalls = append(wantInstalls, (k+1)*rounds)
		}
		if !slices.Equal(installs, wantInstalls) {
			t.Errorf("every=%d: Install in rounds %v, want %v", every, installs, wantInstalls)
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

func sumLen(gs [][]sim.NodeID) (n int) {
	for _, g := range gs {
		n += len(g)
	}
	return n
}

// TestLoopAssignment runs one toy epoch with every assignment hook set:
// each committee drops its first member (a leaver) and adds joiners —
// committee 2 more than the final sample budget — a Target that shifts
// vertex v to committee v+1 and has no committee for vertex 7, and the
// leaders' shuffle, with committee 1 blocked throughout. Every assignee
// must land in exactly one next-epoch list and nobody else in any; the
// stalled committee keeps all its assignees; and AssignFails counts each
// assignee past its committee's samples plus each sample Target refused.
// The committed index then points every assignee at its list.
func TestLoopAssignment(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ty := newToy(2, 4, shards)
		e := ty.e
		n := len(ty.members)
		e.Grow(3*n + 12*n) // room for up to 12 joiners per committee
		assignees := make([][]sim.NodeID, n)
		for c, g := range ty.members {
			assignees[c] = append(assignees[c], g[1:]...)
			joiners := 1
			if c == 2 {
				joiners = 12
			}
			for j := range joiners {
				assignees[c] = append(assignees[c], sim.NodeID(3*n+12*c+j+1))
			}
		}
		var overflow int
		var refused atomic.Int64
		var next [][]sim.NodeID
		l := ty.loop(-1, Hooks{
			Reorg: 2,
			Assignees: func(c int, dst []sim.NodeID) []sim.NodeID {
				return append(dst, assignees[c]...)
			},
			Target: func(v int32) int32 {
				if v == 7 {
					refused.Add(1)
					return -1
				}
				return (v + 1) % int32(n)
			},
			Shuffle: true,
			Install: func(gathered [][]sim.NodeID) [][]sim.NodeID {
				for x := range gathered {
					next = append(next, slices.Clone(gathered[x]))
				}
				old := ty.members
				ty.members = gathered
				return old
			},
		})
		blocked := map[sim.NodeID]bool{4: true, 5: true, 6: true}
		for p := 0; p < l.EpochRounds(); p++ {
			if p == l.EpochRounds()-2 { // the assignment: the final samples are in
				for c := range ty.members {
					if c != 1 {
						overflow += max(0, len(assignees[c])-len(e.Samples[c]))
					}
				}
			}
			l.Step(blocked)
		}
		where := map[sim.NodeID]int{}
		for x, g := range next {
			if !slices.IsSorted(g) {
				t.Errorf("shards=%d: list %d is not sorted: %v", shards, x, g)
			}
			for _, id := range g {
				if _, dup := where[id]; dup {
					t.Errorf("shards=%d: node %d gathered twice", shards, id)
				}
				where[id] = x
				if e.NodeGroup[id-1] != int32(x) {
					t.Errorf("shards=%d: node %d indexed at %d, listed in %d", shards, id, e.NodeGroup[id-1], x)
				}
			}
		}
		for c, as := range assignees {
			for _, id := range as {
				if x, ok := where[id]; !ok || c == 1 && x != 1 {
					t.Errorf("shards=%d: assignee %d of committee %d landed in %d (found %v)", shards, id, c, x, ok)
				}
			}
		}
		if len(where) != sumLen(assignees) {
			t.Errorf("shards=%d: %d nodes gathered, want the %d assignees", shards, len(where), sumLen(assignees))
		}
		tot := l.Totals()
		if want := overflow + int(refused.Load()); tot.AssignFails != want || overflow < 9 || refused.Load() == 0 {
			t.Errorf("shards=%d: %d assignment failures, want %d past the samples + %d refused",
				shards, tot.AssignFails, overflow, refused.Load())
		}
		l.Close()
	}
}
