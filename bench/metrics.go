package main

// metricDef names one metric. The names are what every later
// performance or simplicity change in this repository is judged with,
// so they are fixed here and mirrored in BENCHMARK.json (a test keeps
// the two equal). Bound is the share of the parent's median by which an
// end-to-end metric may worsen; per-layer metrics have none. Moves says
// which end-to-end metric, on which workload, a per-layer metric should
// move; Exact marks counts that must repeat bit for bit.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Moves  string  `json:"moves,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{Name: "sweep_wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "node_rounds_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "live_bytes_per_node", Unit: "B/node", Better: lower, Bound: 0.03},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// experimentIDs are the 28 drivers of exp.All() at the commit that
// defined the benchmark; each gets an exp.<ID>_s metric.
var experimentIDs = []string{
	"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
	"A1", "A2", "A3", "X1", "X2", "X3", "X4", "S1", "S2", "S3", "F1", "R1", "AS1", "AS2",
}

const (
	nrps        = "node_rounds_per_s"
	onFlood     = nrps + " on kernel_flood, core_churn; sweep_wall_s"
	onAsync     = nrps + " on kernel_async_reliable"
	onAsyncLive = nrps + " and live_bytes_per_node on kernel_async_reliable"
	onChurn     = nrps + " on core_churn"
	onSteady    = nrps + " on overlay_steady"
	onDoS       = nrps + " on overlay_dos_measured"
	onSweep     = "sweep_wall_s on sweep_quick"
)

func ml(name, unit, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: lower, Moves: moves}
}

func exact(name, unit, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: lower, Moves: moves, Exact: true}
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		ml("rng.uint64n_ns", "ns", nrps+" on overlay_steady, core_churn"),
		ml("graph.connected_restricted_ns_per_edge", "ns", onDoS),
		ml("graph.second_eigenvalue_ms", "ms", onSweep),
		ml("hgraph.random_ms", "ms", "setup_s on core_churn"),

		ml("sim.step_ms_p50", "ms", onFlood),
		ml("sim.step_ms_tail", "ms", onFlood),
		ml("sim.ns_per_msg_sync", "ns", onFlood),
		ml("sim.allocs_per_round_sync", "count", onFlood),
		exact("sim.msgs_per_node_round", "count", onFlood),
		ml("sim.spawn_ns_per_node", "ns", "setup_s on kernel_flood"),
		ml("sim.handler_ns_per_call", "ns", onFlood),
		ml("sim.ns_per_msg_const1", "ns", onAsync),
		ml("sim.ns_per_msg_spread", "ns", onAsync),
		ml("sim.allocs_per_round_spread", "count", onAsync),
		ml("sim.live_bytes_per_node_spread", "B/node", "live_bytes_per_node on kernel_async_reliable"),
		exact("sim.deferred_per_msg", "count", onAsync),
		ml("sim.coroutine_ns_per_msg", "ns", onSweep),
		ml("sim.sharded2_ns_per_msg", "ns", "informational; 0 on a single CPU"),

		ml("fault.deliveries_ns", "ns", onDoS+"; sweep_wall_s"),
		ml("fault.cutsedge_idle_ns", "ns", onDoS+"; sweep_wall_s"),
		exact("fault.drop_ratio", "ratio", onAsync),

		ml("reliable.idle_ns_per_msg", "ns", onAsyncLive),
		ml("reliable.idle_allocs_per_msg", "count", onAsyncLive),
		ml("reliable.idle_live_bytes_per_node", "B/node", onAsyncLive),
		ml("reliable.loaded_ns_per_msg", "ns", onAsyncLive),
		ml("reliable.phase_ms_p50", "ms", onAsyncLive),
		ml("reliable.phase_ms_tail", "ms", onAsyncLive),
		exact("reliable.retransmits_per_msg", "count", onAsyncLive),
		exact("reliable.acks_per_msg", "count", onAsyncLive),
		exact("reliable.stale_per_msg", "count", onAsyncLive),
		exact("reliable.failures_per_msg", "count", onAsyncLive),
		exact("reliable.ctl_bits_per_msg", "bit", onAsyncLive),
		exact("reliable.stretch", "count", onAsyncLive),

		ml("sampling.rapid_hgraph_ms", "ms", onChurn),
		ml("sampling.rapid_hypercube_ms", "ms", onSweep),
		ml("sampling.rapid_kary_ms", "ms", onSweep),
		ml("sampling.baseline_walk_ms", "ms", onSweep),
		exact("sampling.hgraph_total_bits", "bit", onChurn),

		ml("core.epoch_ms_p50", "ms", onChurn),
		ml("core.epoch_ms_tail", "ms", onChurn),
		ml("core.oracle_ms", "ms", onChurn),
		ml("core.oracle_share", "ratio", onChurn),
		exact("core.max_node_bits", "bit", onChurn),
		exact("core.failures_per_epoch", "count", onChurn),
		ml("core.audit_attached_ratio", "ratio", onChurn),
		ml("core.reliable_idle_ratio", "ratio", onChurn),
	}
	for _, layer := range []string{"supernode", "splitmerge"} {
		live := "live_bytes_per_node on overlay_steady"
		defs = append(defs,
			ml(layer+".epoch_ms_p50", "ms", onSteady),
			ml(layer+".step_ms_p50", "ms", onSteady),
			ml(layer+".step_ms_tail", "ms", onSteady),
			ml(layer+".ns_per_node_round", "ns", onSteady),
			ml(layer+".allocs_per_round", "count", onSteady),
			ml(layer+".live_bytes_per_node", "B/node", live),
			exact(layer+".msgs_per_node_round", "count", onSteady),
			ml(layer+".oracle_ms_per_call", "ms", onDoS),
			ml(layer+".oracle_share", "ratio", onDoS),
			ml(layer+".snapshot_ms", "ms", onDoS),
			ml(layer+".step_blocked_ms_p50", "ms", onDoS),
			exact(layer+".stalls", "count", onDoS),
		)
	}
	defs = append(defs,
		ml("splitmerge.join_leave_us", "us", onDoS),
		exact("splitmerge.dim_spread", "count", onDoS),
		ml("dos.select_blocked_ms", "ms", onDoS),
		ml("audit.workauditor_ratio", "ratio", "sweep_wall_s once -audit is the default"),
		ml("trace.attached_ratio", "ratio", nrps+" on kernel_flood must not move"),
		ml("trace.metrics_attached_ratio", "ratio", nrps+" on kernel_flood must not move"),
		ml("trace.detached_allocs_per_round", "count", nrps+" on kernel_flood; must stay 0"),
		ml("obs.hist_observe_ns", "ns", nrps+" on kernel_flood must not move"),
	)
	for _, id := range experimentIDs {
		defs = append(defs, ml("exp."+id+"_s", "s", onSweep))
	}
	for _, w := range workloads {
		defs = append(defs, ml("bench.trace_overhead."+w.name, "ratio", "traced wall / untraced wall; validity of the traced pass"))
	}
	return append(defs, ml("bench.loadavg_start", "count", "above 1.0 is the usual cause of a broken bound"))
}
