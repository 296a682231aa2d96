package committee

import (
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Report summarizes one round.
type Report struct {
	Round   int
	Epoch   int
	Blocked int
	// Connected reports whether the non-blocked nodes form a connected
	// graph under the nodes' current (possibly stale) knowledge; it is
	// true when measurement was skipped this round.
	Connected bool
	// Measured reports whether connectivity was actually computed.
	Measured bool
	// Stalls counts committees that had no available member this round.
	Stalls int
}

// Totals are a loop's running sums over every round it has run.
type Totals struct {
	Counters
	Rounds       int
	Measured     int // rounds connectivity was measured in
	Disconnected int // rounds measured disconnected
}

// Hooks are what a stack plugs into the loop: what the paper makes
// different between §5 and §6. The reorganization itself is the loop's:
// every committee sends each assignee to the committee that owns the vertex
// its leader sampled for it, the sent nodes are gathered into next-epoch
// groups, and the new groups take effect at once at the epoch's end.
type Hooks struct {
	// Reorg is the number of reorganization rounds after the sampling.
	Reorg int
	// Committees returns the current committees and the vertices each
	// simulates, as Begin takes them.
	Committees func() (members [][]sim.NodeID, verts [][]int32)
	// Assignees appends to dst the nodes committee c reassigns; nil means
	// its members. It is called from the workers, one committee per call.
	Assignees func(c int, dst []sim.NodeID) []sim.NodeID
	// Target returns the committee that receives a node sent to sampled
	// vertex v, −1 for none (the node stays, an assignment failure); nil
	// means committee v.
	Target func(v int32) int32
	// Shuffle has each leader shuffle its committee's pooled samples
	// before assigning them.
	Shuffle bool
	// Install makes next, the gathered groups in committee order, the
	// committed ones, and returns the lists it replaced: the arrays the
	// next epoch gathers into.
	Install func(next [][]sim.NodeID) (old [][]sim.NodeID)
	// Adj returns the committee adjacency of the new committees, built in
	// arena (a recycled view's) or a slice the stack never modifies again.
	Adj func(arena [][]int32) [][]int32
	// Prepare readies the engine for the new epoch: Reset, then Owner.
	Prepare func()
}

// Loop is the round loop of §5 and §6, which both stacks embed. An epoch
// is Algorithm 2's 2T+1 primitive rounds, each two real rounds — the
// simulation, then the synchronization, which only moves messages the
// queues already represent — followed by the stack's reorganization
// rounds: the assignment on the first and the commit on the last. Every
// round ends with the S(x) catch-up, an optional connectivity measurement
// and an audit tick.
type Loop struct {
	e            *Engine
	hooks        Hooks
	measureEvery int
	phase        int // round index within the epoch
	totals       Totals
	audit        *audit.Engine

	// The committees the round's phases read: Begin's, then the new ones
	// once the commit has run.
	members [][]sim.NodeID
	verts   [][]int32
	next    [][]sim.NodeID // the gathered next-epoch groups, in committee order
	// placed are the slots NodeGroup placed at the last commit, the ones
	// the catch-up walks: a slot that left or never joined stays dead, and
	// under churn the dead outnumber the members.
	placed []int32
	// commits counts Commit calls, the stack's first included: the
	// committed state a Publication copies changes with it.
	commits int
	// The loop's worker phases, bound once so that a round allocates nothing.
	phases struct{ assign, gather, catchUp func(w int) }
}

// NewLoop returns the loop that drives e through the stack's hooks,
// measuring connectivity every measureEvery-th round (0 = every round,
// negative = never; ConnectedNow still answers on demand). The stack
// makes its first committees current with Commit.
func NewLoop(e *Engine, measureEvery int, h Hooks) *Loop {
	if measureEvery == 0 {
		measureEvery = 1
	}
	l := &Loop{e: e, hooks: h, measureEvery: measureEvery}
	l.phases.assign, l.phases.gather, l.phases.catchUp = l.assignRange, l.gatherRange, l.catchUpRange
	return l
}

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (l *Loop) Step(blocked map[sim.NodeID]bool) Report {
	e, h := l.e, &l.hooks
	l.members, l.verts = h.Committees()
	e.Begin(blocked, l.members, l.verts)
	rep := Report{Round: e.Round, Epoch: e.Epoch, Blocked: e.Blocked, Connected: true}
	p, sampling := l.phase, l.samplingRounds()
	l.phase++
	switch {
	case p < sampling:
		if p%2 == 0 {
			e.Sample(p / 2)
		}
	case p == sampling:
		n := len(l.members)
		l.next = slices.Grow(l.next[:0], n)[:n] // the arrays the last Install returned
		e.each(l.phases.assign)
		e.each(l.phases.gather)
	case p == sampling+h.Reorg-1:
		e.Epoch++
		l.next = h.Install(l.next)
		l.Commit()
		l.phase = 0
	}
	// Every-round S(x) broadcast: an available node receives the state
	// its committee peers sent in the previous round, provided some peer
	// was available to send it (the paper's recovery mechanism for
	// formerly blocked nodes).
	e.each(l.phases.catchUp)

	c := e.End()
	rep.Stalls = c.Stalls
	l.totals.add(&c)
	l.totals.Rounds++
	if l.measureEvery > 0 && e.Round%l.measureEvery == 0 {
		rep.Measured = true
		rep.Connected = l.ConnectedNow()
		l.totals.Measured++
		if !rep.Connected {
			l.totals.Disconnected++
		}
	}
	l.audit.SetEpoch(e.Epoch)
	l.audit.Tick(e.Round)
	return rep
}

// Commit makes the stack's committees the current epoch's: it sorts every
// member list, points each listed node's NodeGroup entry at its committee,
// notes the placed slots, has the stack Prepare the epoch, and records the
// view with the stack's adjacency. An entry is overwritten, never cleared: a node no list names
// keeps its pointer (§5's repair finds a node a corruption erased by it,
// and §6's Install clears its leavers' itself), and a node a corruption
// lists twice resolves to the later committee at every worker count. The
// loop commits at every epoch's end, after Install; a stack commits its
// first committees once, from New.
func (l *Loop) Commit() {
	e, h := l.e, &l.hooks
	l.members, _ = h.Committees()
	for c, g := range l.members {
		slices.Sort(g) // §6's split and merge leave lists unsorted
		for _, id := range g {
			e.NodeGroup[id-1] = int32(c)
		}
	}
	l.placed = l.placed[:0]
	for v, g := range e.NodeGroup {
		if g >= 0 {
			l.placed = append(l.placed, int32(v))
		}
	}
	h.Prepare()
	v := e.commit(l.members)
	v.Adj = h.Adj(v.Adj)
	l.commits++
}

// GroupSizes returns the current committees' sizes, in committee order.
func (l *Loop) GroupSizes() []int {
	members, _ := l.hooks.Committees()
	out := make([]int, len(members))
	for c, g := range members {
		out[c] = len(g)
	}
	return out
}

// assignRange routes the assignees of worker w's committees. A stalled
// committee cannot reorganize, so its assignees stay (it was counted as a
// stall already). Otherwise assignee i goes to the target of the leader's
// i-th pooled sample. Past the samples the assignment fails and the node
// takes sample i mod their count, or stays when there is none; a sample
// with no target fails too, and the node stays.
func (l *Loop) assignRange(w int) {
	e, h := l.e, &l.hooks
	c := &e.cells[w]
	lo, hi := e.chunk(len(l.members), w)
	for x := lo; x < hi; x++ {
		ids := l.members[x]
		if h.Assignees != nil {
			c.ids = h.Assignees(x, c.ids[:0])
			ids = c.ids
		}
		ld := e.Leaders[x]
		if ld < 0 {
			for _, id := range ids {
				e.route(w, int32(x), id)
			}
			continue
		}
		samples := c.samples[:0]
		for _, u := range l.verts[x] {
			samples = append(samples, e.Samples[u]...)
		}
		c.samples = samples
		if h.Shuffle {
			rng.ShuffleSlice(&e.NodeR[ld], samples)
		}
		for i, id := range ids {
			to := int32(x)
			if len(samples) > 0 {
				to = samples[i%len(samples)]
				if h.Target != nil {
					to = h.Target(to)
				}
			}
			if i >= len(samples) {
				c.AssignFails++
			}
			if to < 0 {
				c.AssignFails++
				to = int32(x)
			}
			e.route(w, to, id)
		}
	}
}

// gatherRange collects the nodes sent to worker w's committees into their
// next-epoch lists, sorted by id, and counts the lists left empty.
func (l *Loop) gatherRange(w int) {
	e := l.e
	lo, hi := e.chunk(len(l.next), w)
	for x := lo; x < hi; x++ {
		l.next[x] = e.gather(w, x, l.next[x][:0])
		slices.Sort(l.next[x])
		if len(l.next[x]) == 0 {
			e.cells[w].EmptyGroups++
		}
	}
}

// catchUpRange applies the S(x) broadcast over worker w's share of the
// placed slots, finding each node's peers through its NodeGroup entry
// (between commits only a repair can take a slot out). A slot whose view
// is already current is skipped before its entry is read: without blocks,
// that is every slot once the commit round's catch-up has run. A slot is
// written only by the worker that owns it, so a node a corruption lists
// twice is still caught up once.
func (l *Loop) catchUpRange(w int) {
	e := l.e
	cur := int32(e.Epoch)
	lo, hi := e.chunk(len(l.placed), w)
	for _, v := range l.placed[lo:hi] {
		if e.ViewEpoch[v] == cur {
			continue
		}
		if g := e.NodeGroup[v]; g >= 0 {
			e.catchUp(v, l.members[g])
		}
	}
}

// samplingRounds is the length of the current epoch's sampling part: two
// real rounds per primitive round of Algorithm 2.
func (l *Loop) samplingRounds() int { return 2 * (2*len(l.e.mi) - 1) }

// EpochRounds returns the rounds of the current epoch: the sampling rounds
// plus the stack's reorganization rounds — Θ(log log n).
func (l *Loop) EpochRounds() int { return l.samplingRounds() + l.hooks.Reorg }

// Round returns the number of completed rounds.
func (l *Loop) Round() int { return l.e.Round }

// Epoch returns the number of completed reorganizations.
func (l *Loop) Epoch() int { return l.e.Epoch }

// Totals returns the running sums of every round's counters.
func (l *Loop) Totals() Totals { return l.totals }

// SetAudit attaches an invariant-audit engine (nil detaches), ticked
// once per Step. A stack registers its checkers on it.
func (l *Loop) SetAudit(a *audit.Engine) { l.audit = a }

// Close releases the shard worker goroutines. The network must not be
// stepped afterwards. Networks that are simply dropped are cleaned up
// by a GC finalizer, so Close is an optimization, not an obligation.
func (l *Loop) Close() { l.e.Close() }

// SetFaults attaches a deterministic fault specification (the zero Spec
// detaches): message drop and duplication act on the committee-level
// queues, and the crash schedule takes nodes out for
// spec.RestartEpochs() epochs at a time (see Engine.SetFaults).
func (l *Loop) SetFaults(spec fault.Spec) { l.e.SetFaults(spec) }

// SetLatency attaches the latency model (see Engine.SetLatency).
func (l *Loop) SetLatency(lat sim.Latency) { l.e.SetLatency(lat) }
