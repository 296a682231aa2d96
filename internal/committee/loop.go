package committee

import (
	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
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

// Hooks are what a stack plugs into the loop.
type Hooks struct {
	// Reorg is the number of reorganization rounds after the sampling.
	Reorg int
	// Committees returns this round's committees and the vertices each
	// simulates, as Begin takes them.
	Committees func() (members [][]sim.NodeID, verts [][]int32)
	// Assign runs on the first reorganization round and Commit on the
	// last, so every commit follows its epoch's assignment. Commit
	// advances the engine's Epoch and Resets it for the next epoch.
	Assign, Commit func()
	// CatchUp is worker w's share of the every-round S(x) catch-up.
	CatchUp func(w int)
}

// Loop is the round loop of §5 and §6, which both stacks embed. An epoch
// is Algorithm 2's 2T+1 primitive rounds, each two real rounds — the
// simulation, then the synchronization, which only moves messages the
// queues already represent — followed by the stack's reorganization
// rounds; every round ends with the S(x) catch-up, an optional
// connectivity measurement and an audit tick.
type Loop struct {
	e            *Engine
	hooks        Hooks
	measureEvery int
	phase        int // round index within the epoch
	totals       Totals
	audit        *audit.Engine
}

// NewLoop returns the loop that drives e through the stack's hooks,
// measuring connectivity every measureEvery-th round (0 = every round,
// negative = never; ConnectedNow still answers on demand).
func NewLoop(e *Engine, measureEvery int, h Hooks) Loop {
	if measureEvery == 0 {
		measureEvery = 1
	}
	return Loop{e: e, hooks: h, measureEvery: measureEvery}
}

// Step executes one communication round under the given blocked set.
// The map is copied into owned bitset storage; the caller may reuse or
// mutate it freely after Step returns.
func (l *Loop) Step(blocked map[sim.NodeID]bool) Report {
	e, h := l.e, &l.hooks
	members, verts := h.Committees()
	e.Begin(blocked, members, verts)
	rep := Report{Round: e.Round, Epoch: e.Epoch, Blocked: e.Blocked, Connected: true}
	p, sampling := l.phase, l.samplingRounds()
	l.phase++
	switch {
	case p < sampling:
		if p%2 == 0 {
			e.Sample(p / 2)
		}
	case p == sampling:
		h.Assign()
	case p == sampling+h.Reorg-1:
		h.Commit()
		l.phase = 0
	}
	// Every-round S(x) broadcast: an available node receives the state
	// its committee peers sent in the previous round, provided some peer
	// was available to send it (the paper's recovery mechanism for
	// formerly blocked nodes).
	e.Each(h.CatchUp)

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
