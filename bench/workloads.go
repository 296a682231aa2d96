package main

import (
	"fmt"
	"time"

	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/exp"
	"overlaynet/internal/fault"
	"overlaynet/internal/metrics"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
)

// workload is one named input set. blockS is the timed length of one
// block on the reference machine; it turns -seconds into a block count
// once, so both sides of a comparison run the same number of blocks of
// the same fixed work.
type workload struct {
	name   string
	why    string
	blockS float64
	run    func(c *blockCtx)
}

var workloads = []workload{
	{"sweep_quick",
		"all 28 experiment drivers once at quick size: every layer in its real mix, so a layer gain must show here in proportion to its share",
		4.4, sweepQuick},
	{"kernel_flood",
		"sim handler flood at n=20k on the sync path: isolates kernel delivery; oracle, sampling and telemetry work must show nothing here",
		0.55, kernelFlood},
	{"kernel_async_reliable",
		"the same flood at n=5k through the calendar with 5% drops behind reliable endpoints: the kernel's other path, where a sync-only gain shows as a loss",
		0.55, kernelAsyncReliable},
	{"core_churn",
		"Section 4 reconfiguration at n=1024 with 1/8 churn per epoch: sampling, handlers, kernel and the validity check in their natural ratio",
		1.25, coreChurn},
	{"overlay_steady",
		"Section 5 and 6 Step pipelines at n=100k with no adversary and no oracle: where the round pipeline is judged and oracle work must not show",
		2.0, overlaySteady},
	{"overlay_dos_measured",
		"Section 5 at n=4096 and 6 at n=2048 under a 2-epoch-late group-isolate attack with the connectivity oracle called every round: the oracle is 99% of the work",
		2.05, overlayDoSMeasured},
}

func allNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- sweep_quick ----

// smokeSweep is how many experiments (in exp.All order) the smoke
// sizing runs: the E-series up to E9, all under 0.1 s.
const smokeSweep = 9

func runExperiment(e exp.Experiment, o exp.Options) (tbl *metrics.Table) {
	defer func() {
		if r := recover(); r != nil {
			tbl = nil
		}
	}()
	o.Exp = e.ID
	return e.Run(o)
}

func sweepQuick(c *blockCtx) {
	exps := exp.All()
	opts := exp.Options{Seed: c.seed, Quick: true, Procs: 1, Shards: 1}
	if c.scale == smoke {
		exps = exps[:smokeSweep]
	} else {
		// Warm-up: the sweep's largest network (S2 spawns 1M nodes) run
		// once, so every timed sweep finds the heap already grown.
		for _, e := range exps {
			if e.ID == "S2" {
				runExperiment(e, opts)
			}
		}
	}
	var tables []*metrics.Table
	rows := 0
	c.startTimed(0)
	alloc0 := memStats().TotalAlloc
	for _, e := range exps {
		c.op("exp."+e.ID, func() bool {
			tbl := runExperiment(e, opts)
			if tbl == nil || tbl.NumRows() == 0 {
				return true
			}
			tables = append(tables, tbl)
			rows += tbl.NumRows()
			return false
		})
	}
	c.endTimed()
	// The sweep's simulated work is not visible from outside its
	// drivers and no network outlives a driver, so its throughput and
	// memory are counted in its own units: experiments per second, and
	// bytes allocated by the sweep per table row (exact to a part in a
	// thousand with Procs 1, where a live-heap reading after the fact
	// is all runtime residue).
	c.b.NodeRounds = float64(len(exps))
	c.b.LiveBytes, c.b.Nodes = float64(memStats().TotalAlloc-alloc0), float64(rows)
	for _, tbl := range tables {
		c.digest("%s\n", exp.MaskWallClock(tbl))
	}
}

// ---- the flood networks (two workloads and most kernel probes) ----

// floodHandler is the BenchmarkStep flood: every node sends fanout
// messages per round to fixed targets, with no randomness and a shared
// pre-boxed payload, so the kernel's own work is all there is.
type floodHandler struct {
	n       int
	payload any
}

const (
	floodFanout = 4
	floodBits   = 32
)

func (h *floodHandler) OnRound(ctx *sim.Ctx, _ []sim.Message) bool {
	idx := int(ctx.ID()) - 1
	for j := 0; j < floodFanout; j++ {
		ctx.Send(sim.NodeID((idx+j*7+1)%h.n+1), h.payload, floodBits)
	}
	return true
}

// sampledHandler times a deterministic 1-in-64 sample of handler calls
// in the traced pass, so sim.Step's span can be split into handler
// time and kernel self time.
type sampledHandler struct {
	inner   sim.Handler
	calls   uint64
	samples int64
	ns      int64
}

const handlerSampleEvery = 64

func (s *sampledHandler) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	s.calls++
	if s.calls%handlerSampleEvery != 0 {
		return s.inner.OnRound(ctx, inbox)
	}
	t := time.Now()
	ok := s.inner.OnRound(ctx, inbox)
	s.ns += int64(time.Since(t))
	s.samples++
	return ok
}

// take returns the handler time of all calls since the last take,
// scaled up from the sample, and the time per call.
func (s *sampledHandler) take(clock float64) (total time.Duration, perCall float64) {
	if s.samples == 0 {
		return 0, 0
	}
	perCall = float64(s.ns)/float64(s.samples) - clock
	if perCall < 0 {
		perCall = 0
	}
	total = time.Duration(perCall * float64(s.calls))
	s.calls, s.samples, s.ns = 0, 0, 0
	return total, perCall
}

type floodOpts struct {
	n         int
	seed      uint64
	shards    int
	latency   string // sim.ParseLatency spec; "" is the sync path
	drop      float64
	reliable  bool
	coroutine bool
	tracer    sim.Tracer
	wrap      func(sim.Handler) sim.Handler
}

// floodNet builds and spawns a flood network. stretch is the reliable
// layer's sim rounds per protocol round (1 without it).
func floodNet(o floodOpts) (net *sim.Network, stretch int) {
	lat, err := sim.ParseLatency(o.latency)
	if err != nil {
		panic(err)
	}
	shards := o.shards
	if shards == 0 {
		shards = 1
	}
	net = sim.NewNetwork(sim.Config{Seed: o.seed, Shards: shards, SizeHint: o.n, Latency: lat})
	if o.drop > 0 {
		net.SetInjector(fault.Spec{Seed: o.seed, Drop: o.drop}.Injector())
	}
	if o.tracer != nil {
		net.SetTracer(o.tracer)
	}
	var h sim.Handler = &floodHandler{n: o.n, payload: any(0)}
	if o.wrap != nil {
		h = o.wrap(h)
	}
	stretch = 1
	cfg := reliable.On()
	if o.reliable {
		stretch = cfg.EffectiveStretch(lat)
	}
	for i := 0; i < o.n; i++ {
		id := sim.NodeID(i + 1)
		switch {
		case o.reliable:
			net.SpawnHandler(id, reliable.Wrap(o.seed, cfg, stretch, h))
		case o.coroutine:
			net.Spawn(id, func(ctx *sim.Ctx) {
				for {
					h.OnRound(ctx, nil)
					ctx.NextRound()
				}
			})
		default:
			net.SpawnHandler(id, h)
		}
	}
	return net, stretch
}

// digestWork folds a stretch of the work log into the digest and
// returns the protocol messages it holds.
func digestWork(c *blockCtx, work []sim.RoundWork) (msgs int64) {
	for _, w := range work {
		c.digest("%d %d %d %d %d\n", w.Messages, w.TotalBits, w.MaxNodeBits, w.CtlMessages, w.CtlBits)
		msgs += int64(w.Messages)
	}
	return msgs
}

func kernelFlood(c *blockCtx) {
	n := c.scale.pick(20000, 20000, 2000)
	rounds := c.scale.pick(200, 100, 20)
	var sh *sampledHandler
	o := floodOpts{n: n, seed: c.seed}
	if c.traced() {
		o.wrap = func(h sim.Handler) sim.Handler { sh = &sampledHandler{inner: h}; return sh }
	}
	var net *sim.Network
	c.call("sim.Spawn", func() { net, _ = floodNet(o) })
	defer net.Shutdown()
	net.Run(2)
	clock := 0.0
	if sh != nil {
		sh.take(0)
		clock = clockNS()
	}
	c.startTimed(n)
	var handlerNS []float64
	for i := 0; i < rounds; i++ {
		c.op("sim.Step", func() bool {
			net.Step()
			if sh != nil {
				total, per := sh.take(clock)
				c.tr.child("sim.handler", total)
				handlerNS = append(handlerNS, per)
			}
			work := net.Work()
			return work[len(work)-1].Messages != floodFanout*n
		})
	}
	c.b.vals["allocs_per_round"] = c.endTimed() / float64(rounds)
	c.b.NodeRounds = float64(n) * float64(rounds)
	c.b.vals["msgs"] = float64(digestWork(c, net.Work()[2:]))
	c.b.vals["handler_ns"] = median(handlerNS)
}

func kernelAsyncReliable(c *blockCtx) {
	n := c.scale.pick(5000, 5000, 1000)
	phases := c.scale.pick(20, 5, 3)
	net, stretch := floodNet(floodOpts{n: n, seed: c.seed, latency: "uniform:1,3", drop: 0.05, reliable: true})
	defer net.Shutdown()
	warm := 2 * stretch
	net.Run(warm)
	c.startTimed(n)
	for p := 0; p < phases; p++ {
		c.op("reliable.phase", func() bool {
			for i := 0; i < stretch; i++ {
				c.call("sim.Step", net.Step)
			}
			return false
		})
	}
	c.endTimed()
	// The operation is one enveloped protocol message; the phases above
	// are only the unit its latency is timed in.
	all := digestWork(c, net.Work()[:warm])
	msgs := digestWork(c, net.Work()[warm:])
	all += msgs
	rel := net.ReliabilityStats()
	c.digest("%+v %d\n", rel, net.DeferredMessages())
	c.b.Ops, c.b.Failed = int(msgs), int(rel.Failures)
	c.b.NodeRounds = float64(n) * float64(phases)
	c.b.vals["msgs"] = float64(msgs)
	c.b.vals["stretch"] = float64(stretch)
	c.b.vals["retransmits_per_msg"] = float64(rel.Retransmits) / float64(all)
	c.b.vals["acks_per_msg"] = float64(rel.Acks) / float64(all)
	c.b.vals["stale_per_msg"] = float64(rel.Stale) / float64(all)
	c.b.vals["failures_per_msg"] = float64(rel.Failures) / float64(all)
	c.b.vals["ctl_bits_per_msg"] = float64(rel.CtlBits) / float64(all)
}

// ---- core_churn ----

// churnPlan draws one epoch's leavers and the sponsors of as many
// joiners from the members, an eighth of them each. Sponsors are
// distinct: RunEpoch sizes its sampling budget by the most joiners any
// one sponsor hosts, so sponsors drawn with replacement made the work
// of an epoch, not only its inputs, a matter of seed luck (+-14%).
func churnPlan(r *rng.RNG, members []int) (joins []core.JoinSpec, leaves []int) {
	k := len(members) / 8
	perm := r.Perm(len(members))
	leaves = make([]int, k)
	for i := range leaves {
		leaves[i] = members[perm[i]]
	}
	joins = make([]core.JoinSpec, k)
	for i := range joins {
		joins[i] = core.JoinSpec{Sponsor: members[perm[k+i]]}
	}
	return joins, leaves
}

func coreChurn(c *blockCtx) {
	n0 := c.scale.pick(1024, 1024, 128)
	epochs := c.scale.pick(2, 1, 1)
	nw := core.NewNetwork(core.Config{Seed: c.seed, N0: n0, D: 8, Alpha: 2, Epsilon: 1, Shards: 1})
	defer nw.Shutdown()
	r := rng.New(c.seed + 1)
	epoch := func() core.EpochReport {
		joins, leaves := churnPlan(r, nw.Members())
		var rep core.EpochReport
		c.call("core.RunEpoch", func() { rep, _ = nw.RunEpoch(joins, leaves) })
		return rep
	}
	epoch()
	c.startTimed(n0)
	fails, maxBits := 0, int64(0)
	for e := 0; e < epochs; e++ {
		c.op("core_churn.epoch", func() bool {
			rep := epoch()
			c.digest("%d %d %d %v %v %d %d %d %d\n", rep.Rounds, rep.NOld, rep.NNew, rep.Connected,
				rep.Valid, rep.Failures, rep.MaxChosen, rep.MaxEmptySegment, rep.MaxNodeBits)
			c.b.NodeRounds += float64(rep.NOld) * float64(rep.Rounds)
			fails += rep.Failures
			if rep.MaxNodeBits > maxBits {
				maxBits = rep.MaxNodeBits
			}
			return !rep.Valid || !rep.Connected
		})
		if c.traced() {
			// The epoch already paid for these two checks inside
			// RunEpoch; calling them again is how their share of it is
			// measured from outside.
			c.call("core.ValidateTopology", func() { _ = nw.ValidateTopology() })
			c.call("core.BuildGraph.IsConnected", func() { nw.BuildGraph().IsConnected() })
		}
	}
	c.endTimed()
	c.b.vals["failures_per_epoch"] = float64(fails) / float64(epochs)
	c.b.vals["max_node_bits"] = float64(maxBits)
}

// ---- the Section 5/6 overlays ----

// overlay is what the two workloads below need from supernode.Network
// and splitmerge.Network alike.
type overlay interface {
	Step(blocked map[sim.NodeID]bool) (stalls int)
	EpochRounds() int
	Round() int
	N() int
	Snapshot() *dos.Snapshot
	ConnectedNow() bool
	Stats() (msgs int64, text string)
	// EpochStart applies the epoch's churn, drawn from r; EpochOK is the
	// stack's own end-of-epoch health rule.
	EpochStart(c *blockCtx, r *rng.RNG)
	EpochOK(steady bool) bool
	DimSpread() int
	Close()
}

type s5 struct {
	*supernode.Network
	n int
}

func (o s5) Step(b map[sim.NodeID]bool) int { return o.Network.Step(b).Stalls }
func (o s5) N() int                         { return o.n }
func (o s5) EpochStart(*blockCtx, *rng.RNG) {}
func (o s5) EpochOK(bool) bool              { return true }
func (o s5) DimSpread() int                 { return 0 }
func (o s5) Stats() (int64, string) {
	st := o.StatsSnapshot()
	return st.Messages, fmt.Sprintf("%+v", st)
}

type s6 struct{ *splitmerge.Network }

func (o s6) Step(b map[sim.NodeID]bool) int { return o.Network.Step(b).Stalls }
func (o s6) Stats() (int64, string) {
	st := o.StatsSnapshot()
	return st.Messages, fmt.Sprintf("%+v %d %d", st, o.DimSpread(), o.Network.N())
}

func (o s6) DimSpread() int {
	lo, hi := o.DimRange()
	return hi - lo
}

// EpochStart replaces an eighth of the members, the E10 churn shape.
func (o s6) EpochStart(c *blockCtx, r *rng.RNG) {
	members := o.Members()
	k := len(members) / 8
	gone := make(map[sim.NodeID]bool, k)
	c.call("splitmerge.JoinLeave", func() {
		for len(gone) < k {
			id := members[r.Intn(len(members))]
			if !gone[id] {
				gone[id] = true
				o.Leave(id)
			}
		}
		for i := 0; i < k; {
			if s := members[r.Intn(len(members))]; !gone[s] {
				o.Join(s)
				i++
			}
		}
	})
	c.b.vals["join_leave_calls"] += float64(2 * k)
}

// EpochOK: Equation (1) in steady state, Lemma 18's dimension spread
// under attack and churn.
func (o s6) EpochOK(steady bool) bool {
	if steady {
		return o.Eq1Holds()
	}
	return o.DimSpread() <= 2
}

// overlaySeed is the Section 5/6 networks' own seed, fixed like their
// n: their arenas grow in capacity steps, so the network seed alone
// moves live bytes by 13% and would drown the 3% bound in seed luck.
// -seed drives what is done to them: the adversary and the churn.
const overlaySeed = 1

func newS5(n int) overlay {
	return s5{supernode.New(supernode.Config{Seed: overlaySeed, N: n, MeasureEvery: -1, Shards: 1}), n}
}

func newS6(n int) overlay {
	return s6{splitmerge.New(splitmerge.Config{Seed: overlaySeed, N0: n, MeasureEvery: -1, Shards: 1})}
}

// steadySection runs warm+timed epochs of Step(nil): an epoch fails on
// any stall or when the stack's health rule does not hold at its end.
func steadySection(c *blockCtx, layer string, build func() overlay, timed int) {
	var nw overlay
	c.call(layer+".New", func() { nw = build() })
	defer nw.Close()
	for i, er := 0, nw.EpochRounds(); i < er; i++ {
		nw.Step(nil)
	}
	live := c.startTimed(nw.N())
	msgs0, _ := nw.Stats()
	rounds := 0
	for e := 0; e < timed; e++ {
		c.op(layer+".epoch", func() bool {
			c.b.vals[layer+".node_rounds"] += float64(nw.N()) * float64(nw.EpochRounds())
			rounds += nw.EpochRounds()
			stalls := 0
			for i, er := 0, nw.EpochRounds(); i < er; i++ {
				c.call(layer+".Step", func() { stalls += nw.Step(nil) })
			}
			_, text := nw.Stats()
			c.digest("%s\n", text)
			return stalls > 0 || !nw.EpochOK(true)
		})
	}
	c.b.vals[layer+".allocs_per_round"] = c.endTimed() / float64(rounds)
	c.b.NodeRounds += c.b.vals[layer+".node_rounds"]
	msgs, _ := nw.Stats()
	c.b.vals[layer+".msgs_per_node_round"] = float64(msgs-msgs0) / (float64(nw.N()) * float64(rounds))
	c.b.vals[layer+".live_bytes_per_node"] = live / float64(nw.N())
}

func overlaySteady(c *blockCtx) {
	n := c.scale.pick(100000, 100000, 2048)
	steadySection(c, "supernode", func() overlay { return newS5(n) }, c.scale.pick(3, 1, 1))
	c.release()
	steadySection(c, "splitmerge", func() overlay { return newS6(n) }, c.scale.pick(2, 1, 1))
}

// attackSection runs two warm epochs that only publish snapshots, then
// one timed epoch in which every round is Snapshot, SelectBlocked,
// Step(blocked), ConnectedNow. A round fails when the non-blocked nodes
// are not connected: Theorems 6 and 7 are the correctness check.
func attackSection(c *blockCtx, layer string, build func() overlay) {
	nw := build()
	defer nw.Close()
	adv := &dos.GroupIsolate{Fraction: 0.4, R: rng.New(c.seed + 5)}
	buf := &dos.Buffer{Lateness: 2 * nw.EpochRounds()}
	if c.noLateness {
		buf.Lateness = 0
	}
	// Warm-up is part of the fixed configuration: its churn is the same
	// at every seed, so set-up time and live bytes are too.
	churn := rng.New(overlaySeed)
	for e := 0; e < 2; e++ {
		nw.EpochStart(c, churn)
		for i, er := 0, nw.EpochRounds(); i < er; i++ {
			buf.Publish(nw.Snapshot())
			nw.Step(nil)
		}
	}
	c.startTimed(nw.N())
	churn = rng.New(c.seed + 6)
	stalls := 0
	nw.EpochStart(c, churn)
	for i, er := 0, nw.EpochRounds(); i < er; i++ {
		last := i == er-1
		c.op(layer+".round", func() bool {
			c.b.NodeRounds += float64(nw.N())
			var blocked map[sim.NodeID]bool
			c.call(layer+".Snapshot", func() { buf.Publish(nw.Snapshot()) })
			c.call("dos.SelectBlocked", func() {
				blocked = adv.SelectBlocked(nw.Round()+1, nw.N(), buf.View(nw.Round()+1))
			})
			c.call(layer+".Step", func() { stalls += nw.Step(blocked) })
			connected := false
			c.call(layer+".ConnectedNow", func() { connected = nw.ConnectedNow() })
			c.digest("%d %v\n", len(blocked), connected)
			return !connected || (last && !nw.EpochOK(false))
		})
	}
	_, text := nw.Stats()
	c.digest("%s\n", text)
	c.endTimed()
	c.b.vals[layer+".stalls"] = float64(stalls)
	c.b.vals[layer+".dim_spread"] = float64(nw.DimSpread())
}

func overlayDoSMeasured(c *blockCtx) {
	n5, n6 := c.scale.pick(4096, 4096, 512), c.scale.pick(2048, 2048, 512)
	attackSection(c, "supernode", func() overlay { return newS5(n5) })
	c.release()
	attackSection(c, "splitmerge", func() overlay { return newS6(n6) })
}
