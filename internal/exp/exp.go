// Package exp contains one driver per experiment of the reproduction
// (see DESIGN.md §3): each driver runs a workload sweep against the
// implemented systems and renders the quantities the corresponding
// theorem or lemma bounds. The drivers are shared by cmd/benchtables,
// which regenerates every table, and by the benchmark in bench/, whose
// sweep_quick workload times each of them.
package exp

import (
	"time"

	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
	"overlaynet/internal/trace"
)

// Options scales an experiment.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Quick shrinks the sweeps for use inside unit tests and
	// short benchmark runs.
	Quick bool
	// Procs caps the number of worker goroutines the trial runner
	// uses for a driver's independent sweep cells. Zero means
	// runtime.GOMAXPROCS(0). Any value yields identical tables: cells
	// are seeded independently and merged in canonical order.
	Procs int
	// Shards is the worker count of the §5/§6 committee engine inside a
	// round (intra-round parallelism, orthogonal to Procs' across-cell
	// parallelism); the sim kernel is serial. Zero defers to the
	// OVERLAYNET_SHARDS environment variable, then 1. Any value yields
	// byte-identical tables.
	Shards int
	// Latency is forwarded to sim.Config.Latency by the drivers that
	// build sim-kernel networks (the sampling, churn, and scale
	// experiments): the zero value keeps the synchronous round model; an
	// enabled model runs the networks under the discrete-event scheduler
	// (cmd/benchtables -latency). Zero-spread models (sync, const ≤ 1)
	// yield byte-identical tables to the synchronous run; models with
	// spread defer messages and degrade the protocols — experiment AS1
	// sweeps exactly that. The §5/§6 overlay stacks translate the model
	// into a per-virtual-round delivery deadline via SetLatency instead.
	Latency sim.Latency
	// Reliable is forwarded — like Latency — to the sampling and
	// reconfiguration networks the drivers build (cmd/benchtables
	// -reliable): when enabled, every protocol node runs behind the
	// deterministic ack/retransmit endpoint of internal/reliable. On
	// zero-spread latency models the endpoint's phase stretch resolves
	// to 1 and the tables stay byte-identical to the unprotected run;
	// experiment AS2 sweeps the layer explicitly (and, like AS1's
	// latency sweep, ignores this global). The §5/§6 overlay stacks do
	// not carry it (their virtual rounds already model whole phases).
	Reliable reliable.Config
	// CellTimeout, when positive, arms the runner's stall watchdog: a
	// sweep cell that fails to finish within this wall-clock budget is
	// abandoned and reported as an error (cmd/benchtables -cell-timeout).
	// Zero disables the watchdog. Wall-clock only — it never influences
	// the deterministic output of cells that do finish.
	CellTimeout time.Duration

	// Exp labels telemetry with the running experiment's id
	// (cmd/benchtables sets it; empty is fine for direct driver
	// calls).
	Exp string
	// Trace, when non-nil, receives a span per sweep cell from the
	// runner, plus epoch spans and simulator drop/round accounting
	// from the drivers that thread it through (the reconfiguration and
	// flood experiments). The protocol stacks' own counts (epochs,
	// stalls, splits/merges) are their Stats, read into the tables.
	// Tracing never perturbs the tables: no randomness or scheduling
	// depends on it.
	Trace *trace.Recorder
	// Progress, when non-nil, is notified as sweep cells are
	// registered and completed (cmd/benchtables -progress).
	Progress *trace.Progress

	// Audit attaches the runtime invariant-audit engine to the networks
	// built by the reconfiguration drivers (E6/E8/E10/F1), checking every
	// tick: every epoch for the core network and every round for the
	// supernode overlays. Violations are reported through Trace (when
	// set) and never change table output: a clean run renders
	// byte-identical tables with or without auditing.
	Audit bool
	// Faults is a deterministic fault-injection spec the supporting
	// drivers apply to every network they build. Each sweep cell
	// derives its injection seed through cellSeed, so the schedule is
	// independent of Procs and Shards.
	Faults fault.Spec
}

// cellFaults derives the per-cell fault spec: the same Spec with a
// seed mixed from the cell coordinate, so distinct cells draw
// independent schedules yet the whole sweep is reproducible for any
// worker or shard count.
func (o Options) cellFaults(cell int) fault.Spec {
	if !o.Faults.Active() {
		return fault.Spec{}
	}
	base := o.Faults.Seed
	if base == 0 {
		base = o.Seed
	}
	return o.Faults.WithSeed(cellSeed(base, 0xf1, uint64(cell)))
}

// sizes returns quick or full sweep sizes.
func (o Options) sizes(quick, full []int) []int {
	if o.Quick {
		return quick
	}
	return full
}

// size is sizes for one number.
func (o Options) size(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}

// Experiment couples an id to its driver for enumeration by the CLI.
type Experiment struct {
	ID    string
	Claim string
	Run   func(Options) *metrics.Table
}

// All enumerates every experiment in DESIGN.md order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Thm 2: rapid sampling on H-graphs — O(log log n) rounds, almost-uniform", E1RapidSamplingHGraph},
		{"E2", "Thm 2: communication work per node-round is polylog", E2CommunicationWork},
		{"E3", "Thm 3: rapid sampling on hypercubes — O(log log n) rounds, uniform", E3RapidSamplingHypercube},
		{"E4", "§1/§3: exponential speed-up over plain random-walk sampling", E4RapidVsWalk},
		{"E5", "Lemma 7: budget schedule succeeds w.h.p.; undersized budgets fail", E5SuccessProbability},
		{"E6", "Thm 4/5: reconfiguration keeps connectivity under constant-rate churn", E6ReconfigChurn},
		{"E7", "Lemmas 11/12: congestion and empty segments are polylog", E7CongestionSegments},
		{"E8", "Thm 6: connectivity under (1/2-eps)-bounded late DoS; 0-late disconnects", E8DoSConnectivity},
		{"E9", "Lemmas 16/17: group sizes concentrate; less than half of each group blocked", E9GroupBalance},
		{"E10", "Thm 7 + Lemma 18: churn+DoS with split/merge; dim spread <= 2", E10ChurnDoS},
		{"E11", "Cor 2: anonymous routing delivers in O(1) rounds under attack", E11AnonRouting},
		{"E12", "Thm 8: robust DHT serves batches under budget blocking", E12RobustDHT},
		{"E13", "§7.3: publish-subscribe aggregation and retrieval", E13PubSub},
		{"E14", "Lemma 4: pointer doubling reaches distance D in ~log2 D rounds", E14PointerDoubling},
		{"A1", "Ablation: geometric vs flat sampling budgets", A1BudgetAblation},
		{"A2", "Ablation: lowest-id vs rotating synchronization rule", A2SyncRule},
		{"A3", "Ablation: the sampling primitive needs expansion (torus control)", A3ExpansionMatters},
		{"X1", "Extension (§8): churn-rate limit of the split/merge network", X1ChurnRateLimit},
		{"X2", "Extension (§6): permanent crash failures", X2CrashFailures},
		{"X3", "Extension (§7.2): rapid sampling on k-ary hypercubes", X3KAryRapidSampling},
		{"X4", "Extension (§7.2): the reconfigured k-ary hypercube network under DoS", X4KAryNetwork},
		{"S1", "Scale: one simulated network at n up to 100k, dense-slot kernel", S1ScaleFlood},
		{"S2", "Scale: event-driven flood at n up to 1M, handler kernel", S2ScaleFloodEvent},
		{"S3", "Scale: §5/§6 overlay stacks at n up to 1M, dense slots + sharded rounds", S3ScaleOverlay},
		{"F1", "Audit: which invariants survive which fault rates (drop/dup/crash sweep)", F1FaultMatrix},
		{"R1", "Recovery: partition & state-corruption MTTR with degraded-mode service", R1Recovery},
		{"AS1", "Async: event scheduler — zero spread reproduces the round model, spread degrades it", AS1AsyncLatency},
		{"AS2", "Reliable: ack/retransmit endpoints win back §3/§4 under spread and drops", AS2ReliableDelivery},
	}
}
