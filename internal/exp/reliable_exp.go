package exp

import (
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/sim"
)

// AS2: the reliable-delivery experiment. AS1 measures how much of the
// §3/§4 guarantees the raw protocols lose when delivery is late (spread)
// or lossy (drops); AS2 measures how much the deterministic
// ack/retransmit endpoints of internal/reliable win back, and at what
// price. Every (latency, drop) cell runs twice — "legacy" (the
// unprotected protocol, the AS1 behavior) and "reliable" (the same
// protocol behind retransmitting endpoints) — under the SAME seed, so
// each row pair compares one run with and without the layer.
//
// Reading the table:
//   - the const:1/drop 0 pair is the zero-overhead control: the
//     reliable row must equal the legacy row in every protocol column
//     with retx = lost = 0 (the layer is provably silent there; the
//     regression tests byte-compare the rendered rows);
//   - spread rows show restoration: where the legacy row breaks
//     (failures, TV outside the envelope, lost connectivity), the
//     reliable row returns inside the paper's envelope — the
//     "restoration frontier" of the issue;
//   - the retx and rounds columns price the restoration: retransmit
//     copies per run, and protocol rounds stretched by the endpoint's
//     phase factor.
//
// "lost" counts messages whose retransmit budget ran out — reported
// delivery failures, the graceful-degradation currency. A healthy
// reliable row keeps it at zero.
func AS2ReliableDelivery(o Options) *metrics.Table {
	t := metrics.NewTable("AS2  Reliable — ack/retransmit endpoints win back §3/§4 under latency spread and drops",
		"system", "latency", "drop", "mode", "rounds", "failures", "retx", "lost", "quality", "healthy")
	lats := as2Latencies(o.Quick)
	drops := []float64{0, 0.05}
	const modes = 2
	perSys := len(lats) * len(drops) * modes
	return sweep(o, t, 2*perSys, func(cell int) [][]any {
		c := cell % perSys
		lat := lats[c/(len(drops)*modes)]
		drop := drops[(c/modes)%len(drops)]
		mode, rel := "legacy", reliable.Config{}
		if c%modes == 1 {
			mode, rel = "reliable", as2Config(drop)
		}
		if cell/perSys == 0 {
			res, tv, inEnv := samplingUnder(o, 0xa2, lat, drop, rel)
			return [][]any{{"sampling §3", lat, drop, mode, res.Rounds, res.Failures, res.Retransmits,
				res.DeliveryFailures, tv, res.Failures == 0 && res.DeliveryFailures == 0 && inEnv}}
		}
		// Budget-exhausted deliveries surface as FailDelivery inside the
		// failures column AND in the lost column (the kernel's own tally),
		// so a reliable row is healthy only when the guarantee is restored
		// outright.
		nw, tally := coreUnder(o, 0xa2, lat, drop, rel)
		defer nw.Shutdown()
		rs := nw.ReliabilityStats()
		return [][]any{{"reconfig §4", lat, drop, mode, tally.rounds * nw.Stretch(),
			tally.failures, rs.Retransmits, rs.Failures, tally.quality(), tally.healthy()}}
	})
}

// as2Latencies is the sweep: the zero-spread control plus the two
// spread models where AS1 shows §3/§4 degrading (wide uniform and
// heavy-tailed lognormal).
func as2Latencies(quick bool) []sim.Latency {
	lats := []sim.Latency{
		{Kind: sim.LatencyConst, A: 1},
		{Kind: sim.LatencyUniform, A: 0.5, B: 2.5},
		{Kind: sim.LatencyLognorm, A: 0, B: 0.6},
	}
	if quick {
		return lats[:2]
	}
	return lats
}

// as2Config is the endpoint configuration of the reliable rows: the
// defaults with the backoff flattened to linear, plus — on cells with
// injected drops — a larger retransmit budget and a phase stretch wide
// enough to fit it (recovering a dropped message costs a full
// round trip per attempt; drop-free cells leave the stretch to
// EffectiveStretch). Exponential backoff is a congestion remedy; under
// pure random loss or tail latency it pushes the third attempt past
// the phase deadline, where retransmits are stale by construction.
// Linear pacing fits the whole budget inside the window. A copy fails
// to clear when the copy OR its ack is lost (p ≈ 2·drop), so at
// drop = 0.05 the per-message residual is ~0.1^attempts: the default 6
// attempts leave ~1e-6 — about one reported loss per run at these
// message volumes — while 8 attempts (~1e-8) silence the table. On the
// zero-spread control the choice is invisible: RTO 3 exceeds the
// 2-round ack trip, so no retransmit is ever scheduled.
func as2Config(drop float64) reliable.Config {
	cfg := reliable.On()
	cfg.Backoff = 1
	if drop > 0 {
		cfg.Budget = 7
		cfg.Stretch = 32
	}
	return cfg
}
