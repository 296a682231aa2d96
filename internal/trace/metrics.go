package trace

import (
	"strings"

	"overlaynet/internal/obs"
	"overlaynet/internal/sim"
)

// kernelMetrics is the recorder's state in its obs.Registry: one named
// series per count, plus the streaming histograms that replace exact
// per-round sample sorts at scale. The names here are the telemetry
// vocabulary — Snapshot, the JSONL stream and tracestats read them.
// All handles are created once in WithMetrics;
// tracer hot paths only touch counters on their own lane.
type kernelMetrics struct {
	rounds     *obs.Counter
	messages   *obs.Counter
	spawns     *obs.Counter
	cells      *obs.Counter
	epochs     *obs.Counter
	violations *obs.Counter
	recoveries *obs.Counter
	dupExtra   *obs.Counter
	// asyncDeferred counts messages the discrete-event scheduler parked
	// past the synchronous round+1 deadline (zero in every synchronous or
	// zero-spread run).
	asyncDeferred *obs.Counter
	// Reliability lane (internal/reliable endpoints; all zero unless a
	// traced stack enables reliable delivery): retransmit copies, acks,
	// messages whose retransmit budget ran out, and envelopes discarded
	// for arriving after their protocol round closed. Like asyncDeferred,
	// every one is a pure function of seed, latency model and fault spec.
	retransmits     *obs.Counter
	acks            *obs.Counter
	relFailures     *obs.Counter
	staleDeliveries *obs.Counter
	drops           [sim.NumDropReasons]*obs.Counter

	// alive distributes the alive count at every traced round start —
	// sums over rounds and networks, so the order concurrent networks
	// report in never shows.
	alive       *obs.Histogram
	roundDurUS  *obs.Histogram
	inboxDepth  *obs.Histogram
	nodeBits    *obs.Histogram
	epochRounds *obs.Histogram
	mttrRounds  *obs.Histogram
	cellDurUS   *obs.Histogram
	// ackDelayRounds distributes the round-trip delay (in sim rounds,
	// power-of-two bucketed at the kernel) of every acknowledged send.
	ackDelayRounds *obs.Histogram
}

func newKernelMetrics(reg *obs.Registry) *kernelMetrics {
	km := &kernelMetrics{
		rounds:     reg.Counter("overlaynet_rounds_total", "simulation rounds executed"),
		messages:   reg.Counter("overlaynet_messages_total", "messages sent"),
		spawns:     reg.Counter("overlaynet_spawns_total", "nodes spawned"),
		cells:      reg.Counter("overlaynet_cells_total", "sweep cells completed"),
		epochs:     reg.Counter("overlaynet_epochs_total", "reconfiguration epochs completed"),
		violations: reg.Counter("overlaynet_violations_total", "invariant-audit violations"),
		recoveries: reg.Counter("overlaynet_recoveries_total", "closed recovery episodes"),
		dupExtra:   reg.Counter("overlaynet_dup_extra_copies_total", "extra inbox copies from injected duplication"),

		asyncDeferred: reg.Counter("overlaynet_async_deferred_total", "messages deferred past round+1 by the event scheduler"),

		retransmits:     reg.Counter("overlaynet_retransmits_total", "retransmit copies sent by reliable endpoints"),
		acks:            reg.Counter("overlaynet_acks_total", "acknowledgements sent by reliable endpoints"),
		relFailures:     reg.Counter("overlaynet_delivery_failures_total", "messages whose retransmit budget ran out"),
		staleDeliveries: reg.Counter("overlaynet_stale_deliveries_total", "envelopes discarded for arriving after their protocol round closed"),

		alive:       reg.Histogram("overlaynet_alive_nodes", "alive nodes at round start"),
		roundDurUS:  reg.Histogram("overlaynet_round_duration_us", "wall-clock round duration (microseconds)"),
		inboxDepth:  reg.Histogram("overlaynet_inbox_depth", "delivered inbox size per alive node per round"),
		nodeBits:    reg.Histogram("overlaynet_node_bits", "sent+received bits per node per round"),
		epochRounds: reg.Histogram("overlaynet_epoch_rounds", "rounds per reconfiguration epoch"),
		mttrRounds:  reg.Histogram("overlaynet_mttr_rounds", "rounds to recover per closed episode"),
		cellDurUS:   reg.Histogram("overlaynet_cell_duration_us", "wall-clock sweep-cell duration (microseconds)"),

		ackDelayRounds: reg.Histogram("overlaynet_ack_delay_rounds", "rounds from send to acknowledgement"),
	}
	for i := sim.DropReason(0); i < sim.NumDropReasons; i++ {
		name := "overlaynet_drops_" + strings.ReplaceAll(i.String(), "-", "_") + "_total"
		km.drops[i] = reg.Counter(name, "messages dropped: "+i.String())
	}
	return km
}

// WithMetrics makes the recorder count into reg, a registry the caller
// shares with other writers, instead of the one New made. Call before
// any Tracer is handed out. Returns r for chaining.
func (r *Recorder) WithMetrics(reg *obs.Registry) *Recorder {
	r.reg = reg
	r.km = newKernelMetrics(reg)
	r.recLane = reg.Lane()
	return r
}

// FlightRecorder turns on sampled event retention: a deterministic
// splitmix64 sampler keeps roughly rate of the per-message/per-round
// events in a bounded ring of the given capacity, regardless of run
// length; rate 1 keeps every event until the ring fills. Violations and
// recoveries are kept beside the ring whatever the rate. The sampling
// decision is a pure function of (seed, event identity), so the kept
// set is byte-identical at any -procs/OVERLAYNET_SHARDS setting.
// Returns r for chaining.
func (r *Recorder) FlightRecorder(seed uint64, rate float64, capacity int) *Recorder {
	r.mu.Lock()
	r.flight = obs.NewRing[Event](capacity)
	r.flightSampler = obs.NewSampler(seed, rate)
	r.mu.Unlock()
	r.flightOn.Store(true)
	return r
}

// FlightEvents returns the sampled events currently in the flight ring,
// oldest first (nil when flight mode is off).
func (r *Recorder) FlightEvents() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.flight.Snapshot()
}

// kindID gives each event kind a stable small integer for the flight
// sampler's identity hash. The numbers are fixed, since the sample is a
// function of them: a removed kind leaves its number unused (4 and 5).
func kindID(kind string) uint64 {
	switch kind {
	case "round_start":
		return 1
	case "round_end":
		return 2
	case "spawn":
		return 3
	case "drop":
		return 6
	case "dup":
		return 7
	case "sched_deferred":
		return 8
	case "reliable_round":
		return 9
	default:
		return 63
	}
}

// keepInFlight decides (deterministically) whether ev enters the flight
// ring. Caller holds r.mu.
func (r *Recorder) keepInFlight(ev Event) bool {
	return r.flightSampler.Keep(
		kindID(ev.Kind)^uint64(ev.Round)<<8,
		ev.From^ev.Node,
		ev.To,
		uint64(ev.Bits))
}
