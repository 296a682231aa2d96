// Package trace is the observability layer of the reproduction: a
// pluggable, zero-cost-when-disabled recorder for the simulator's
// round reports, audit violations and recoveries, and wall-clock spans
// from the experiment harness (per sweep cell) and the reconfiguration
// network (per epoch).
//
// A single Recorder may be shared by many networks and worker
// goroutines: its counters are the series of an obs.Registry (per-lane
// atomic banks) and span/event recording is mutex-protected. Attach it
// to a simulator with Network.SetTracer(rec.Tracer(scope)) and to the
// experiment harness via exp.Options.Trace; export the result with
// WriteJSONL (one record per line) or WriteChromeTrace (Chrome/Perfetto
// trace_events JSON, load it at https://ui.perfetto.dev).
//
// A round's facts reach the registry as counts and histograms, never as
// events: the only events are violation and recovery reports, and the
// Recorder keeps every one.
package trace

import (
	"sync"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// Event is one audit report: a violation or a closed recovery episode.
// TSMicros is microseconds since the Recorder was created.
type Event struct {
	TSMicros int64  `json:"ts_us"`
	Kind     string `json:"kind"` // violation, recovery
	Scope    string `json:"scope,omitempty"`
	Round    int    `json:"round"`
	Reason   string `json:"reason,omitempty"` // the invariant's name
	// Detail, Epoch, Seed, and Nodes carry the structured report on
	// violation events.
	Detail string   `json:"detail,omitempty"`
	Epoch  int      `json:"epoch,omitempty"`
	Seed   uint64   `json:"seed,omitempty"`
	Nodes  []uint64 `json:"nodes,omitempty"`
	// CleanRound and MTTRRounds appear on recovery events only: Round is
	// the episode's first violation, CleanRound the first clean audit
	// pass after it, MTTRRounds their difference.
	CleanRound int `json:"clean_round,omitempty"`
	MTTRRounds int `json:"mttr_rounds,omitempty"`
}

// Span is one timed region: an experiment, one sweep cell of its
// parameter grid, or one reconfiguration epoch.
type Span struct {
	Kind    string `json:"kind"` // experiment, cell, epoch
	Name    string `json:"name"`
	Scope   string `json:"scope,omitempty"`
	Cell    int    `json:"cell,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Worker  int    `json:"worker,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Epoch   int    `json:"epoch,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	NOld    int    `json:"n_old,omitempty"`
	NNew    int    `json:"n_new,omitempty"`
	Rows    int    `json:"rows,omitempty"`
}

// Recorder collects events, spans, and counters. The zero value is not
// usable; call New.
type Recorder struct {
	start time.Time

	// The one store of every count (see metrics.go): reg is New's own
	// registry or the shared one WithMetrics named, km its kernel series,
	// recLane the lane of the recorder's own increments.
	reg     *obs.Registry
	km      *kernelMetrics
	recLane int

	mu     sync.Mutex
	spans  []Span
	events []Event // every violation and recovery
}

// New returns an empty Recorder counting into a registry of its own
// (WithMetrics names a shared one instead); its clock starts now.
func New() *Recorder {
	return (&Recorder{start: time.Now()}).WithMetrics(obs.NewRegistry(0))
}

// Tracer returns a sim.Tracer that counts into this recorder's
// registry. The series sum over every tracer, so scope (e.g.
// "E6/cell3") labels nothing. Multiple tracers from the same recorder
// may be attached to different networks concurrently.
func (r *Recorder) Tracer(scope string) sim.Tracer {
	// Each tracer gets its own counter lane: networks traced
	// concurrently (sweep cells on different workers) increment
	// different cache lines of the metric banks.
	return &simTracer{rec: r, lane: r.reg.Lane()}
}

// AddSpan records a fully built span.
func (r *Recorder) AddSpan(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Since converts an absolute time to microseconds since the recorder's
// epoch.
func (r *Recorder) Since(t time.Time) int64 { return t.Sub(r.start).Microseconds() }

// CellSpan records the span of one sweep cell that started at start and
// just finished.
func (r *Recorder) CellSpan(exp string, cell int, seed uint64, worker int, start time.Time) {
	r.km.cells.Inc(r.recLane)
	r.km.cellDurUS.Observe(time.Since(start).Microseconds())
	r.AddSpan(Span{
		Kind:    "cell",
		Name:    exp,
		Scope:   exp,
		Cell:    cell,
		Seed:    seed,
		Worker:  worker,
		StartUS: r.Since(start),
		DurUS:   time.Since(start).Microseconds(),
	})
}

// EpochSpan records the span of one reconfiguration epoch.
func (r *Recorder) EpochSpan(scope string, epoch, rounds, nOld, nNew int, start time.Time) {
	r.km.epochs.Inc(r.recLane)
	r.km.epochRounds.Observe(int64(rounds))
	r.AddSpan(Span{
		Kind:    "epoch",
		Name:    scope,
		Scope:   scope,
		Epoch:   epoch,
		Rounds:  rounds,
		NOld:    nOld,
		NNew:    nNew,
		StartUS: r.Since(start),
		DurUS:   time.Since(start).Microseconds(),
	})
}

// ExperimentSpan records the span of one whole experiment driver run.
func (r *Recorder) ExperimentSpan(id string, seed uint64, rows int, start time.Time) {
	r.AddSpan(Span{
		Kind:    "experiment",
		Name:    id,
		Scope:   id,
		Seed:    seed,
		Rows:    rows,
		StartUS: r.Since(start),
		DurUS:   time.Since(start).Microseconds(),
	})
}

// Snapshot is the flat name → value map the JSONL stream's last line
// carries under "metrics", and the one way Go callers read a count: the
// registry's FlatSnapshot (names in metrics.go) plus the derived
// overlaynet_delivered_total.
func (r *Recorder) Snapshot() map[string]float64 {
	m := r.reg.FlatSnapshot()
	// Per the sim.Tracer reconciliation contract: delivered = sends minus
	// the drops (dead-receiver and injected), plus the extra copies
	// injected duplication added.
	km := r.km
	m["overlaynet_delivered_total"] = float64(km.messages.Value() -
		km.drops[sim.DropDeadReceiver].Value() -
		km.drops[sim.DropFaultInjected].Value() +
		km.dupExtra.Value())
	return m
}

// ReportViolation implements audit.Reporter: invariant violations are
// counted and emitted as "violation" events, so they reach the JSONL
// export (events and the metrics snapshot) and cmd/tracestats alongside
// the rest of the telemetry.
func (r *Recorder) ReportViolation(v audit.Violation) {
	r.km.violations.Inc(r.recLane)
	// Violations are rare and load-bearing, so every one is kept. The
	// audit engine caps what it reports.
	r.keep(Event{
		TSMicros: time.Since(r.start).Microseconds(),
		Kind:     "violation",
		Scope:    v.Scope,
		Round:    v.Round,
		Reason:   v.Invariant,
		Detail:   v.Detail,
		Epoch:    v.Epoch,
		Seed:     v.Seed,
		Nodes:    v.Nodes,
	})
}

// ReportRecovery implements audit.RecoveryReporter: closed break
// episodes are counted (with their recovery times summed for MTTR) and
// emitted as "recovery" events, kept like violations.
func (r *Recorder) ReportRecovery(rec audit.Recovery) {
	r.km.recoveries.Inc(r.recLane)
	r.km.mttrRounds.Observe(int64(rec.Rounds))
	r.keep(Event{
		TSMicros:   time.Since(r.start).Microseconds(),
		Kind:       "recovery",
		Scope:      rec.Scope,
		Round:      rec.BrokenAt,
		Reason:     rec.Invariant,
		Seed:       rec.Seed,
		CleanRound: rec.CleanAt,
		MTTRRounds: rec.Rounds,
	})
}

func (r *Recorder) keep(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Events returns a copy of the events both exports write: every
// violation and recovery report, in report order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// simTracer adapts a Recorder to the sim.Tracer interface: each round's
// stats stream into the registry's counters (on the tracer's private
// lane) and log-scale histograms. roundStartUS times the current round
// for the duration histogram (driver-goroutine-only state, like the
// kernel's own scratch).
type simTracer struct {
	rec          *Recorder
	lane         int
	roundStartUS int64
}

func (t *simTracer) now() int64 { return time.Since(t.rec.start).Microseconds() }

func (t *simTracer) RoundStart(round, alive int) {
	km := t.rec.km
	km.rounds.Inc(t.lane)
	km.alive.Observe(int64(alive))
	t.roundStartUS = t.now()
}

// RoundEnd counts the round: its sends, drops by reason, duplicated
// extras, deferrals and reliable-layer activity, every one a pure
// function of seed, latency model and fault spec; the per-node samples
// stream into the histograms as O(n) bucket increments, with no
// sorting and no retention.
func (t *simTracer) RoundEnd(s sim.RoundStats) {
	km, l := t.rec.km, t.lane
	km.messages.Add(l, uint64(s.Work.Messages))
	for r, d := range s.Dropped {
		km.drops[r].Add(l, uint64(d))
	}
	km.dupExtra.Add(l, uint64(s.DupExtra))
	km.asyncDeferred.Add(l, uint64(s.Deferred))
	rel := &s.Reliability
	km.retransmits.Add(l, uint64(rel.Retransmits))
	km.acks.Add(l, uint64(rel.Acks))
	km.relFailures.Add(l, uint64(rel.Failures))
	km.staleDeliveries.Add(l, uint64(rel.Stale))
	for b, c := range rel.AckDelay {
		km.ackDelayRounds.ObserveN(int64(1)<<b, uint64(c))
	}
	km.inboxDepth.ObserveAll(s.Inbox)
	km.nodeBits.ObserveAll(s.Bits)
	km.roundDurUS.Observe(t.now() - t.roundStartUS)
}

func (t *simTracer) NodeSpawned(int, sim.NodeID) { t.rec.km.spawns.Inc(t.lane) }
