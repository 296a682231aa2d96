// Package trace is the observability layer of the reproduction: a
// pluggable, zero-cost-when-disabled recorder for simulator lifecycle
// events, drop-reason accounting, and wall-clock spans from the
// experiment harness (per sweep cell) and the reconfiguration network
// (per epoch).
//
// A single Recorder may be shared by many networks and worker
// goroutines: its counters are the series of an obs.Registry (per-lane
// atomic banks) and span/event recording is mutex-protected. Attach it
// to a simulator with Network.SetTracer(rec.Tracer(scope)) and to the
// experiment harness via exp.Options.Trace; export the result with
// WriteJSONL (one event per line) or WriteChromeTrace (Chrome/Perfetto
// trace_events JSON, load it at https://ui.perfetto.dev).
//
// Every Recorder keeps its counters, spans, and every violation and
// recovery report. Per-round and per-message events are kept only in
// the bounded flight ring FlightRecorder turns on; FlightRecorder(seed,
// 1, capacity) keeps all of them until the ring fills.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"overlaynet/internal/audit"
	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// Event is one simulator lifecycle event. TSMicros is microseconds
// since the Recorder was created.
type Event struct {
	TSMicros int64  `json:"ts_us"`
	Kind     string `json:"kind"` // round_start, round_end, spawn, drop, dup, sched_deferred, reliable_round, violation, recovery
	Scope    string `json:"scope,omitempty"`
	Round    int    `json:"round"`
	Node     uint64 `json:"node,omitempty"`
	From     uint64 `json:"from,omitempty"`
	To       uint64 `json:"to,omitempty"`
	Reason   string `json:"reason,omitempty"` // drop reason, or invariant name on violations
	Bits     int    `json:"bits,omitempty"`
	Alive    int    `json:"alive,omitempty"`
	// Copies (on dup events) is the delivered copy count; Detail, Epoch,
	// Seed, and Nodes carry the structured report on violation events.
	Copies int      `json:"copies,omitempty"`
	Detail string   `json:"detail,omitempty"`
	Epoch  int      `json:"epoch,omitempty"`
	Seed   uint64   `json:"seed,omitempty"`
	Nodes  []uint64 `json:"nodes,omitempty"`
	// Stats carries the round summary on round_end events.
	Stats *sim.RoundStats `json:"stats,omitempty"`
	// CleanRound and MTTRRounds appear on recovery events only: Round is
	// the episode's first violation, CleanRound the first clean audit
	// pass after it, MTTRRounds their difference.
	CleanRound int `json:"clean_round,omitempty"`
	MTTRRounds int `json:"mttr_rounds,omitempty"`
	// Deferred, on sched_deferred events only: how many messages the
	// discrete-event scheduler parked past round+1 this round. It is a
	// deterministic count — a pure function of the seed and the latency
	// model — so it participates in byte-compared output.
	Deferred int `json:"deferred,omitempty"`
	// Reliability lane, on reliable_round events only: the round's
	// control-plane activity from internal/reliable endpoints. Like
	// Deferred these are deterministic counts (pure functions of seed,
	// latency model, and fault spec), safe in byte-compared output.
	Retransmits  int `json:"retransmits,omitempty"`
	Acks         int `json:"acks,omitempty"`
	RelFailures  int `json:"rel_failures,omitempty"`
	StaleArrived int `json:"stale,omitempty"`
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

	// Flight recorder (see metrics.go): a bounded ring of
	// deterministically sampled events. flightOn mirrors flight != nil
	// so the tracer hooks' check stays lock-free.
	flightOn      atomic.Bool
	flightSampler obs.Sampler

	mu     sync.Mutex
	spans  []Span
	kept   []Event // every violation and recovery, beside the ring so none is evicted
	flight *obs.Ring[Event]
}

// New returns an empty Recorder counting into a registry of its own
// (WithMetrics names a shared one instead); its clock starts now.
func New() *Recorder {
	return (&Recorder{start: time.Now()}).WithMetrics(obs.NewRegistry(0))
}

// Start returns the recorder's epoch; span and event timestamps are
// relative to it.
func (r *Recorder) Start() time.Time { return r.start }

// Tracer returns a sim.Tracer that feeds this recorder, labeling its
// events with scope (e.g. "E6/cell3"). Multiple tracers from the same
// recorder may be attached to different networks concurrently.
func (r *Recorder) Tracer(scope string) sim.Tracer {
	// Each tracer gets its own counter lane: networks traced
	// concurrently (sweep cells on different workers) increment
	// different cache lines of the metric banks.
	return &simTracer{rec: r, scope: scope, lane: r.reg.Lane()}
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
	// Unlike round/message telemetry, violations are rare and
	// load-bearing, so every one is kept. The audit engine caps what it
	// reports.
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
	r.kept = append(r.kept, ev)
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Events returns a copy of the events both exports write: every
// violation and recovery report, then the flight ring's sample, oldest
// first (none without FlightRecorder).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(append([]Event(nil), r.kept...), r.flight.Snapshot()...)
}

// emit offers an event to the flight ring. The tracer hooks call it only
// when wantsEvents reports a ring, checked without the lock.
func (r *Recorder) emit(ev Event) {
	r.mu.Lock()
	if r.keepInFlight(ev) {
		r.flight.Append(ev)
	}
	r.mu.Unlock()
}

func (r *Recorder) wantsEvents() bool { return r.flightOn.Load() }

// simTracer adapts a Recorder to the sim.Tracer interface, labeling
// everything with a fixed scope; the raw per-round samples stream into
// the registry's log-scale histograms. lane is the tracer's private
// counter lane; roundStartUS times the current round for the duration
// histogram (driver-goroutine-only state, like the kernel's own
// scratch).
type simTracer struct {
	rec          *Recorder
	scope        string
	lane         int
	roundStartUS int64
}

func (t *simTracer) now() int64 { return time.Since(t.rec.start).Microseconds() }

func (t *simTracer) RoundStart(round, alive int) {
	km := t.rec.km
	km.rounds.Inc(t.lane)
	km.alive.Observe(int64(alive))
	t.roundStartUS = t.now()
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "round_start", Scope: t.scope,
			Round: round, Alive: alive})
	}
}

func (t *simTracer) RoundEnd(stats sim.RoundStats) {
	t.rec.km.messages.Add(t.lane, uint64(stats.Work.Messages))
	t.rec.km.roundDurUS.Observe(t.now() - t.roundStartUS)
	if t.rec.wantsEvents() {
		s := stats
		t.rec.emit(Event{TSMicros: t.now(), Kind: "round_end", Scope: t.scope,
			Round: stats.Round, Alive: stats.Alive, Stats: &s})
	}
}

// RoundSamples streams the kernel's raw per-node inbox and bits samples
// into the registry's histograms — O(n) bucket increments on the driver
// goroutine, no sorting, no retention.
func (t *simTracer) RoundSamples(round int, inbox, bits []int64) {
	t.rec.km.inboxDepth.ObserveAll(inbox)
	t.rec.km.nodeBits.ObserveAll(bits)
}

func (t *simTracer) NodeSpawned(round int, id sim.NodeID) {
	t.rec.km.spawns.Inc(t.lane)
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "spawn", Scope: t.scope,
			Round: round, Node: uint64(id)})
	}
}

// RoundDeferred counts the messages the discrete-event scheduler parked
// past the synchronous round+1 deadline. The count is a pure function of
// (seed, latency model): sched_deferred events and the
// overlaynet_async_deferred_total series are deterministic output, safe
// to byte-compare.
func (t *simTracer) RoundDeferred(round, deferred int) {
	t.rec.km.asyncDeferred.Add(t.lane, uint64(deferred))
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "sched_deferred", Scope: t.scope,
			Round: round, Deferred: deferred})
	}
}

// RoundReliability counts a round's control-lane activity (retransmits,
// acks, exhausted budgets, stale arrivals) from reliable endpoints; every
// count is a pure function of (seed, latency model, fault spec), safe to
// byte-compare.
func (t *simTracer) RoundReliability(round int, stats sim.ReliabilityRoundStats) {
	km := t.rec.km
	km.retransmits.Add(t.lane, uint64(stats.Retransmits))
	km.acks.Add(t.lane, uint64(stats.Acks))
	km.relFailures.Add(t.lane, uint64(stats.Failures))
	km.staleDeliveries.Add(t.lane, uint64(stats.Stale))
	for b, c := range stats.AckDelay {
		km.ackDelayRounds.ObserveN(int64(1)<<b, uint64(c))
	}
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "reliable_round", Scope: t.scope,
			Round: round, Retransmits: stats.Retransmits, Acks: stats.Acks,
			RelFailures: stats.Failures, StaleArrived: stats.Stale})
	}
}

// MessageDuplicated accumulates the extra-copy counter the delivered
// reconciliation uses.
func (t *simTracer) MessageDuplicated(round int, from, to sim.NodeID, bits, copies int) {
	t.rec.km.dupExtra.Add(t.lane, uint64(copies-1))
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "dup", Scope: t.scope,
			Round: round, From: uint64(from), To: uint64(to),
			Bits: bits, Copies: copies})
	}
}

func (t *simTracer) MessageDropped(round int, reason sim.DropReason, from, to sim.NodeID, bits int) {
	t.rec.km.drops[reason].Inc(t.lane)
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "drop", Scope: t.scope,
			Round: round, From: uint64(from), To: uint64(to),
			Reason: reason.String(), Bits: bits})
	}
}
