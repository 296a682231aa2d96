package exp

import (
	"fmt"

	"overlaynet/internal/churn"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/hgraph"
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sampling"
	"overlaynet/internal/sim"
)

// AS1: the asynchrony experiment. The paper's model is fully
// synchronous — every message sent in round i arrives at round i+1 —
// and every theorem leans on that lockstep. AS1 asks what the
// guarantees are worth when delivery is not lockstep: it reruns the
// sampling primitive (§3), the reconfiguration network (§4), and the
// two overlay stacks (§5/§6) under the discrete-event scheduler with
// seeded per-edge latency distributions of increasing spread, and
// reports how much of each system's headline claim survives.
//
// Two rows are the controls pinning the scheduler itself:
//   - "sync" runs the plain synchronous kernel;
//   - "const:1" runs the event scheduler with zero spread, which must
//     reproduce the synchronous run bit for bit (every column equal to
//     the sync row; the regression tests compare the rendered rows).
//
// The spread rows measure degradation: for the sim-kernel systems a
// message sampled later than one round is delivered late (the deferred
// column counts them) and the round-driven protocols miss it; for the
// §5/§6 stacks — whose virtual rounds each stand for a whole protocol
// phase — a late message is modeled as lost for its phase (the
// standard reduction of asynchrony to a lossy synchronous system; see
// fault.ComposeGate), so their deferred column reads "-".
func AS1AsyncLatency(o Options) *metrics.Table {
	t := metrics.NewTable("AS1  Async — discrete-event scheduler: latency spread vs the synchronous round model",
		"system", "latency", "deferred", "failures", "quality", "healthy")
	lats := as1Latencies(o.Quick)
	const nSystems = 4
	t.AddRows(mustRows(RunRows(o, nSystems*len(lats), func(cell int) [][]string {
		lat := lats[cell%len(lats)]
		// AS1 measures the UNPROTECTED protocols (AS2 adds the reliable
		// endpoints), so the global -reliable option does not apply here.
		switch sys := cell / len(lats); sys {
		case 0:
			res, tv, inEnv := samplingUnder(o, 0xa5, lat, 0, reliable.Config{})
			return [][]string{metrics.Row("sampling §3", lat, res.Deferred, res.Failures,
				tv, res.Failures == 0 && inEnv)}
		case 1:
			nw, tally := coreUnder(o, 0xa5, lat, 0, reliable.Config{})
			defer nw.Shutdown()
			return [][]string{metrics.Row("reconfig §4", lat, nw.DeferredMessages(), tally.failures,
				tally, tally.healthy())}
		default:
			return [][]string{as1Overlay(o, lat, overlayKinds[sys-2])}
		}
	})))
	return t
}

// as1Latencies is the spread sweep: the synchronous control, the
// zero-spread scheduler control, and three models of growing spread
// (narrow uniform, wide uniform, heavy-tailed lognormal).
func as1Latencies(quick bool) []sim.Latency {
	lats := []sim.Latency{
		{}, // synchronous kernel, no scheduler
		{Kind: sim.LatencyConst, A: 1},
		{Kind: sim.LatencyUniform, A: 0.5, B: 1.5},
		{Kind: sim.LatencyUniform, A: 0.5, B: 2.5},
		{Kind: sim.LatencyLognorm, A: 0, B: 0.6},
	}
	if quick {
		return []sim.Latency{lats[0], lats[1], lats[3]}
	}
	return lats
}

// samplingUnder reruns Theorem 2's rapid sampling under one delivery
// regime — a latency model, a message drop rate and an endpoint
// configuration — and renders its quality cell: the pooled TV distance
// against its 3x expected-under-uniform envelope, and whether it is
// inside. Deferred or lost responses shrink the multisets, so a bad regime
// shows up first as extraction failures, then as TV loss. The seed depends
// only on tag (the experiment) and n, so every row of a sweep reruns the
// SAME protocol instance.
func samplingUnder(o Options, tag uint64, lat sim.Latency, drop float64, rel reliable.Config) (res *sampling.RapidResult, quality string, inEnv bool) {
	n := o.size(128, 256)
	seed := cellSeed(o.Seed, tag, uint64(n))
	p := expParams(o, n)
	p.Latency, p.Reliable = lat, rel
	if drop > 0 {
		p.Faults = fault.Spec{Seed: cellSeed(seed, 0xd0), Drop: drop}
	}
	h := hgraph.Random(rng.New(seed), n, p.D)
	res = sampling.RapidHGraph(seed^1, h, p)
	tv, env := metrics.PooledTV(res.Samples, n)
	return res, fmt.Sprintf("TV %.3f (env %.3f)", tv, env), tv <= env
}

// coreUnder reruns Theorem 4/5's reconfiguration under the same kind of
// regime with 25% replacement churn per epoch, and tallies connectivity
// and validity per epoch: late or lost protocol messages miss their
// phase, so a bad regime surfaces as sampling underflow and unresolved
// assignments (failures) and eventually as invalid epochs. The caller
// shuts the network down once it has read the kernel's counters.
func coreUnder(o Options, tag uint64, lat sim.Latency, drop float64, rel reliable.Config) (*core.Network, epochTally) {
	n := 64
	epochs := o.size(2, 3)
	seed := cellSeed(o.Seed, tag, 0xc0, uint64(n))
	e := o.envDelivery()
	e.latency, e.reliable = lat, rel
	if drop > 0 {
		e.faults = fault.Spec{Seed: cellSeed(seed, 0xd0), Drop: drop}
	}
	nw := newCore(e, seed, n)
	return nw, tallyEpochs(churn.Run(nw, &churn.Replace{Fraction: 0.25, R: rng.New(seed + 1)}, epochs))
}

// as1Overlay reruns the connectivity claim of Theorem 6 (§5) or 7 (§6)
// under lat with the stack's 20% DoS adversary. These stacks run whole
// protocol phases per virtual round, so the latency model acts as a
// delivery deadline: messages sampled later than one round are lost for
// their phase. Quality is the disconnected fraction of the measured
// rounds.
func as1Overlay(o Options, lat sim.Latency, k overlayKind) []string {
	n := o.size(128, 256)
	seed := cellSeed(o.Seed, 0xa5, uint64(k.sec)<<4, uint64(n))
	e := o.envDelivery()
	e.deadline = lat
	nw := k.build(e, seed, n, 2, 0)
	defer nw.Close()
	adv, lateness := nw.as1(rng.New(seed + 1))
	nw.run(adv, &dos.Buffer{Lateness: lateness}, 2*nw.EpochRounds())
	h := nw.health()
	return metrics.Row(k.label(), lat, "-", h.stalls,
		fmt.Sprintf("disc %d/%d", h.disconnected, h.measured), h.disconnected == 0)
}
