package main

// layerMetrics derives the per-layer metrics of the workloads from the
// traced pass: times from the spans around the calls into each layer,
// counts from the values taken at the same boundaries. untraced is the
// pass the tracing overhead is measured against.
func layerMetrics(traced, untraced map[string][]*block, out map[string]float64) {
	for name, blocks := range traced {
		v := newView(blocks)
		switch name {
		case "sweep_quick":
			for _, id := range experimentIDs {
				out["exp."+id+"_s"] = median(v.ms("exp."+id)) / 1e3
			}
		case "kernel_flood":
			step := v.ms("sim.Step")
			out["sim.step_ms_p50"] = median(step)
			out["sim.step_ms_tail"], _ = tail(step)
			out["sim.ns_per_msg_sync"] = v.perBlock(func(b *block) float64 { return b.WallS * 1e9 / b.vals["msgs"] })
			out["sim.msgs_per_node_round"] = v.perBlock(func(b *block) float64 { return b.vals["msgs"] / b.NodeRounds })
			out["sim.allocs_per_round_sync"] = v.val("allocs_per_round")
			out["sim.spawn_ns_per_node"] = v.perBlock(func(b *block) float64 {
				return sum(durations(b.spans, "sim.Spawn")) * 1e6 / b.Nodes
			})
			out["sim.handler_ns_per_call"] = v.val("handler_ns")
		case "kernel_async_reliable":
			phase := v.ms("reliable.phase")
			out["reliable.phase_ms_p50"] = median(phase)
			out["reliable.phase_ms_tail"], _ = tail(phase)
			out["reliable.loaded_ns_per_msg"] = v.perBlock(func(b *block) float64 { return b.WallS * 1e9 / b.vals["msgs"] })
			for _, k := range []string{"retransmits_per_msg", "acks_per_msg", "stale_per_msg", "failures_per_msg", "ctl_bits_per_msg", "stretch"} {
				out["reliable."+k] = v.val(k)
			}
		case "core_churn":
			epoch := v.ms("core_churn.epoch")
			oracle := sum(v.ms("core.ValidateTopology")) + sum(v.ms("core.BuildGraph.IsConnected"))
			out["core.epoch_ms_p50"] = median(epoch)
			out["core.epoch_ms_tail"], _ = tail(epoch)
			out["core.oracle_ms"] = ratio(oracle, float64(len(epoch)))
			out["core.oracle_share"] = ratio(oracle, sum(epoch))
			out["core.max_node_bits"] = v.val("max_node_bits")
			out["core.failures_per_epoch"] = v.val("failures_per_epoch")
		case "overlay_steady":
			for _, l := range []string{"supernode", "splitmerge"} {
				epoch, step := v.ms(l+".epoch"), v.ms(l+".Step")
				out[l+".epoch_ms_p50"] = median(epoch)
				out[l+".step_ms_p50"] = median(step)
				out[l+".step_ms_tail"], _ = tail(step)
				out[l+".ns_per_node_round"] = v.perBlock(func(b *block) float64 {
					return sum(durations(b.spans, l+".epoch")) * 1e6 / b.vals[l+".node_rounds"]
				})
				for _, k := range []string{".allocs_per_round", ".live_bytes_per_node", ".msgs_per_node_round"} {
					out[l+k] = v.val(l + k)
				}
			}
		case "overlay_dos_measured":
			for _, l := range []string{"supernode", "splitmerge"} {
				oracle := v.ms(l + ".ConnectedNow")
				out[l+".oracle_ms_per_call"] = ratio(sum(oracle), float64(len(oracle)))
				out[l+".oracle_share"] = ratio(v.self[l+".ConnectedNow"], sum(v.ms(l+".round")))
				snap := v.ms(l + ".Snapshot")
				out[l+".snapshot_ms"] = ratio(sum(snap), float64(len(snap)))
				out[l+".step_blocked_ms_p50"] = median(v.ms(l + ".Step"))
				out[l+".stalls"] = v.val(l + ".stalls")
			}
			out["splitmerge.dim_spread"] = v.val("splitmerge.dim_spread")
			out["splitmerge.join_leave_us"] = v.perBlock(func(b *block) float64 {
				return sum(durations(b.spans, "splitmerge.JoinLeave")) * 1e3 / b.vals["join_leave_calls"]
			})
		}
		if base := untraced[name]; len(base) > 0 {
			// Best-of over equally many blocks on both sides.
			k := min(len(base), len(blocks))
			out["bench.trace_overhead."+name] = ratio(bestWall(blocks[:k]), bestWall(base[:k]))
		}
	}
}

// view is one workload's traced blocks seen together.
type view struct {
	blocks []*block
	spans  []span
	self   map[string]float64 // self time in ms by span name
}

func newView(blocks []*block) view {
	v := view{blocks: blocks, self: map[string]float64{}}
	for _, b := range blocks {
		v.spans = append(v.spans, b.spans...)
		for name, ms := range selfTimes(b.spans) {
			v.self[name] += ms
		}
	}
	return v
}

func (v view) ms(name string) []float64 { return durations(v.spans, name) }

// perBlock is the median over blocks of a per-block figure.
func (v view) perBlock(f func(*block) float64) float64 {
	xs := make([]float64, len(v.blocks))
	for i, b := range v.blocks {
		xs[i] = f(b)
	}
	return median(xs)
}

func (v view) val(key string) float64 {
	return v.perBlock(func(b *block) float64 { return b.vals[key] })
}
