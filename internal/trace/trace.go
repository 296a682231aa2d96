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
// By default the Recorder aggregates counters and spans only; call
// RecordEvents(true) to additionally keep every per-round, per-message
// event (memory grows with the run — meant for focused scenarios, not
// full sweeps).
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
	Kind     string `json:"kind"` // round_start, round_end, spawn, kill, block, drop, dup, violation, recovery
	Scope    string `json:"scope,omitempty"`
	Round    int    `json:"round"`
	Node     uint64 `json:"node,omitempty"`
	From     uint64 `json:"from,omitempty"`
	To       uint64 `json:"to,omitempty"`
	Reason   string `json:"reason,omitempty"` // drop reason, or invariant name on violations
	Bits     int    `json:"bits,omitempty"`
	Alive    int    `json:"alive,omitempty"`
	Blocked  int    `json:"blocked,omitempty"`
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
	// Scale-span fields (kind "scale"): one network run of N nodes for
	// Rounds rounds, with its measured round throughput and per-node
	// communication footprint. RoundsPerSec is wall-clock (machine-
	// dependent); BytesPerNode is deterministic work accounting.
	N            int     `json:"n,omitempty"`
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// Counters is a typed view of the recorder's registry series for Go
// callers — nothing is stored behind it, every field is read from its
// series when Counters() is called (TestCountersMatchRegistry lists
// which). Delivered is the one derived field.
type Counters struct {
	Rounds    uint64
	Messages  uint64 // sends by non-blocked senders
	Delivered uint64 // messages that reached an inbox
	Spawns    uint64
	Kills     uint64
	Blocks    uint64 // node-round block events
	Cells     uint64
	Epochs    uint64
	Drops     map[string]uint64 // by sim.DropReason name
	// DupExtraCopies counts inbox entries beyond the first created by
	// injected duplication (copies-1 per duplicated message);
	// Violations counts invariant-audit reports.
	DupExtraCopies uint64
	Violations     uint64
	// Recoveries counts closed break episodes (invariant broken, then
	// observed clean again); RecoveryRounds is the sum of their
	// per-episode recovery times, so RecoveryRounds/Recoveries is the
	// run's mean time to recover in rounds.
	Recoveries     uint64
	RecoveryRounds uint64
	// AsyncDeferred counts messages the discrete-event scheduler parked
	// past the synchronous round+1 deadline (async mode with latency
	// spread only — zero in every synchronous or zero-spread run). It is
	// deterministic: safe for manifests and byte-compared tables.
	AsyncDeferred uint64
	// Reliability lane (internal/reliable endpoints; all zero unless a
	// traced stack enables reliable delivery). Retransmits counts
	// control-lane retransmit copies, Acks the acknowledgements,
	// DeliveryFailures the messages whose retransmit budget ran out,
	// StaleDeliveries the envelopes that arrived after their protocol
	// round closed (discarded, unacked). All deterministic, like
	// AsyncDeferred.
	Retransmits      uint64
	Acks             uint64
	DeliveryFailures uint64
	StaleDeliveries  uint64
}

// Recorder collects events, spans, and counters. The zero value is not
// usable; call New.
type Recorder struct {
	start      time.Time
	withEvents bool

	// The one store of every count (see metrics.go): reg is New's own
	// registry or the shared one WithMetrics named, km its kernel series,
	// recLane the lane of the recorder's own increments.
	reg     *obs.Registry
	km      *kernelMetrics
	recLane int

	// Flight recorder (see metrics.go): a bounded ring of
	// deterministically sampled events. flightOn mirrors flight != nil
	// so wantsEvents stays lock-free.
	flightOn      atomic.Bool
	flightSampler obs.Sampler

	mu     sync.Mutex
	spans  []Span
	events []Event
	flight *obs.Ring[Event]
}

// New returns an empty Recorder counting into a registry of its own
// (WithMetrics names a shared one instead); its clock starts now.
func New() *Recorder {
	return (&Recorder{start: time.Now()}).WithMetrics(obs.NewRegistry(0))
}

// RecordEvents toggles in-memory retention of per-round/per-message
// events (counters and spans are always kept). Returns r for chaining.
func (r *Recorder) RecordEvents(on bool) *Recorder {
	r.withEvents = on
	return r
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

// ScaleSpan records one size point of a scale experiment: a network of
// n nodes ran rounds rounds starting at start, achieving roundsPerSec
// wall-clock throughput at bytesPerNode communication per node-round.
// These spans feed the benchtables manifest's scale section and the
// cmd/tracestats scale report.
func (r *Recorder) ScaleSpan(scope string, n, rounds int, roundsPerSec, bytesPerNode float64, start time.Time) {
	r.AddSpan(Span{
		Kind:         "scale",
		Name:         scope,
		Scope:        scope,
		Rounds:       rounds,
		N:            n,
		RoundsPerSec: roundsPerSec,
		BytesPerNode: bytesPerNode,
		StartUS:      r.Since(start),
		DurUS:        time.Since(start).Microseconds(),
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

// Counters reads the view off the registry series.
func (r *Recorder) Counters() Counters {
	km := r.km
	c := Counters{
		Rounds:           km.rounds.Value(),
		Messages:         km.messages.Value(),
		Spawns:           km.spawns.Value(),
		Kills:            km.kills.Value(),
		Blocks:           km.blocks.Value(),
		Cells:            km.cells.Value(),
		Epochs:           km.epochs.Value(),
		Drops:            make(map[string]uint64, sim.NumDropReasons),
		DupExtraCopies:   km.dupExtra.Value(),
		Violations:       km.violations.Value(),
		Recoveries:       km.recoveries.Value(),
		RecoveryRounds:   uint64(km.mttrRounds.Snapshot().Sum),
		AsyncDeferred:    km.asyncDeferred.Value(),
		Retransmits:      km.retransmits.Value(),
		Acks:             km.acks.Value(),
		DeliveryFailures: km.relFailures.Value(),
		StaleDeliveries:  km.staleDeliveries.Value(),
	}
	for i, d := range km.drops {
		c.Drops[sim.DropReason(i).String()] = d.Value()
	}
	// Per the sim.Tracer reconciliation contract: delivered = sends by
	// non-blocked senders minus the send-round drops (including
	// injected ones), plus the extra copies injected duplication added.
	c.Delivered = c.Messages -
		c.Drops[sim.DropDeadReceiver.String()] -
		c.Drops[sim.DropBlockedReceiverSendRound.String()] -
		c.Drops[sim.DropFaultInjected.String()] +
		c.DupExtraCopies
	return c
}

// Snapshot is the flat name → value map every artifact carries under
// "metrics" (run manifest, JSONL metrics line, Chrome trace file): the
// registry's FlatSnapshot plus the derived overlaynet_delivered_total.
func (r *Recorder) Snapshot() map[string]float64 {
	m := r.reg.FlatSnapshot()
	m["overlaynet_delivered_total"] = float64(r.Counters().Delivered)
	return m
}

// ReportViolation implements audit.Reporter: invariant violations are
// counted and emitted as "violation" events, so they reach JSONL
// exports, manifests (via the metrics snapshot), and cmd/tracestats
// alongside the rest of the telemetry.
func (r *Recorder) ReportViolation(v audit.Violation) {
	r.km.violations.Inc(r.recLane)
	// Unlike round/message telemetry, violations are rare and
	// load-bearing, so they are always retained — not gated behind
	// RecordEvents. The audit engine caps what it reports.
	ev := Event{
		TSMicros: time.Since(r.start).Microseconds(),
		Kind:     "violation",
		Scope:    v.Scope,
		Round:    v.Round,
		Reason:   v.Invariant,
		Detail:   v.Detail,
		Epoch:    v.Epoch,
		Seed:     v.Seed,
		Nodes:    v.Nodes,
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	if r.flight != nil {
		r.flight.Append(ev)
	}
	r.mu.Unlock()
}

// ReportRecovery implements audit.RecoveryReporter: closed break
// episodes are counted (with their recovery times summed for MTTR) and
// emitted as "recovery" events. Like violations they are rare and
// load-bearing, so they are always retained regardless of RecordEvents.
func (r *Recorder) ReportRecovery(rec audit.Recovery) {
	r.km.recoveries.Inc(r.recLane)
	r.km.mttrRounds.Observe(int64(rec.Rounds))
	ev := Event{
		TSMicros:   time.Since(r.start).Microseconds(),
		Kind:       "recovery",
		Scope:      rec.Scope,
		Round:      rec.BrokenAt,
		Reason:     rec.Invariant,
		Seed:       rec.Seed,
		CleanRound: rec.CleanAt,
		MTTRRounds: rec.Rounds,
	}
	r.mu.Lock()
	r.events = append(r.events, ev)
	if r.flight != nil {
		r.flight.Append(ev)
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Events returns a copy of the recorded events (empty unless
// RecordEvents(true) was set).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// emit appends an event (if event retention is on) and offers it to
// the flight ring (if one is set). Called only when at least one of the
// two is possible — the tracer methods check cheaply first.
func (r *Recorder) emit(ev Event) {
	r.mu.Lock()
	if r.withEvents {
		r.events = append(r.events, ev)
	}
	if r.flight != nil && r.keepInFlight(ev) {
		r.flight.Append(ev)
	}
	r.mu.Unlock()
}

func (r *Recorder) wantsEvents() bool {
	return r.withEvents || r.flightOn.Load()
}

// simTracer adapts a Recorder to the sim.Tracer interface, labeling
// everything with a fixed scope. It also implements sim.RoundSampler:
// the raw per-round samples stream into the registry's log-scale
// histograms, and the kernel may skip its exact percentile sort (see
// ExactRoundStats). lane is the tracer's private
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

func (t *simTracer) RoundStart(round, alive, blocked int) {
	km := t.rec.km
	km.rounds.Inc(t.lane)
	km.blocks.Add(t.lane, uint64(blocked))
	km.alive.Observe(int64(alive))
	t.roundStartUS = t.now()
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "round_start", Scope: t.scope,
			Round: round, Alive: alive, Blocked: blocked})
	}
}

func (t *simTracer) RoundEnd(stats sim.RoundStats) {
	t.rec.km.messages.Add(t.lane, uint64(stats.Work.Messages))
	t.rec.km.roundDurUS.Observe(t.now() - t.roundStartUS)
	if t.rec.wantsEvents() {
		s := stats
		t.rec.emit(Event{TSMicros: t.now(), Kind: "round_end", Scope: t.scope,
			Round: stats.Round, Alive: stats.Alive, Blocked: stats.Blocked, Stats: &s})
	}
}

// RoundSamples implements sim.RoundSampler: the kernel's raw per-node
// inbox and bits samples stream into the registry's histograms —
// O(n) bucket increments on the driver goroutine, no sorting, no
// retention.
func (t *simTracer) RoundSamples(round int, inbox, bits []int64) {
	t.rec.km.inboxDepth.ObserveAll(inbox)
	t.rec.km.nodeBits.ObserveAll(bits)
}

// ExactRoundStats tells the kernel whether the exact sorted round
// percentiles are still needed: only when retained round_end events
// embed them. Metrics-only and flight-recorder tracing skip the
// per-round O(n log n) sort — the flight ring deliberately carries
// none, which keeps flight mode O(n) per round at n=1M.
func (t *simTracer) ExactRoundStats() bool { return t.rec.withEvents }

func (t *simTracer) NodeSpawned(round int, id sim.NodeID) {
	t.rec.km.spawns.Inc(t.lane)
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "spawn", Scope: t.scope,
			Round: round, Node: uint64(id)})
	}
}

func (t *simTracer) NodeKilled(round int, id sim.NodeID) {
	t.rec.km.kills.Inc(t.lane)
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "kill", Scope: t.scope,
			Round: round, Node: uint64(id)})
	}
}

// NodeBlocked only emits the event: RoundStart has counted the round's
// blocked nodes.
func (t *simTracer) NodeBlocked(round int, id sim.NodeID) {
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "block", Scope: t.scope,
			Round: round, Node: uint64(id)})
	}
}

// RoundDeferred implements sim.LatencyObserver: the discrete-event
// scheduler reports each round's count of messages parked past the
// synchronous round+1 deadline. The kernel only calls it for nonzero
// counts, so a zero-spread async run produces the exact synchronous
// callback sequence, and the count is a pure function of (seed, latency
// model): sched_deferred events and the AsyncDeferred counter are
// deterministic output, safe to byte-compare.
func (t *simTracer) RoundDeferred(round, deferred int) {
	t.rec.km.asyncDeferred.Add(t.lane, uint64(deferred))
	if t.rec.wantsEvents() {
		t.rec.emit(Event{TSMicros: t.now(), Kind: "sched_deferred", Scope: t.scope,
			Round: round, Deferred: deferred})
	}
}

// RoundReliability implements sim.ReliabilityObserver: the kernel
// reports each round's control-lane activity (retransmits, acks,
// exhausted budgets, stale arrivals) from reliable endpoints. Like
// RoundDeferred it fires only on nonzero rounds — a run without the
// reliable layer (or on a perfect network where only acks flow) keeps
// the legacy callback cadence — and every count is a pure function of
// (seed, latency model, fault spec), safe to byte-compare.
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

// MessageDuplicated implements sim.FaultObserver: injected duplications
// accumulate the extra-copy counter the Delivered reconciliation uses.
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
