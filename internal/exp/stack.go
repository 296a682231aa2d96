package exp

import (
	"fmt"

	"overlaynet/internal/audit"
	"overlaynet/internal/core"
	"overlaynet/internal/dos"
	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
	"overlaynet/internal/splitmerge"
	"overlaynet/internal/supernode"
	"overlaynet/internal/trace"
)

// This file is the one place in the package that builds a §4, §5 or §6
// network and attaches telemetry, audit, faults and latency to it. Which
// env method a driver calls is the whole statement of which global flag
// reaches which experiment.

// env is what one sweep cell attaches to the network it builds.
type env struct {
	shards int
	trace  *trace.Recorder // §4 only: the committee stacks have no trace hook
	scope  string
	audit  *audit.Engine
	faults fault.Spec
	// latency and reliable are §4's delivery: the kernel's scheduler
	// model and the endpoints every node runs behind.
	latency  sim.Latency
	reliable reliable.Config
	// deadline is the same model in §5/§6's form: a message slower than
	// one virtual round is lost for its phase. No global flag sets it —
	// only AS1's sweep.
	deadline sim.Latency
}

// envDelivery is what every driver attaches: the committee engine's
// Shards, and on the sim kernel -latency and -reliable (§3 takes those
// through expParams).
func (o Options) envDelivery() env {
	return env{shards: o.Shards, latency: o.Latency, reliable: o.Reliable}
}

// envTraced adds the shared recorder under the cell's scope (E7).
func (o Options) envTraced(cell int) env {
	e := o.envDelivery()
	e.trace, e.scope = o.Trace, fmt.Sprintf("%s/cell%d", o.Exp, cell)
	return e
}

// envGlobals adds -audit and -faults, which reach one experiment per
// stack: E6, E8, E10.
func (o Options) envGlobals(cell int, auditSeed uint64) env {
	e := o.envTraced(cell)
	if o.Audit {
		var rep audit.Reporter
		if o.Trace != nil {
			rep = o.Trace
		}
		e.audit = audit.NewEngine(e.scope, auditSeed, 1, rep)
	}
	e.faults = o.cellFaults(cell)
	return e
}

// envLocal is for F1 and R1, which measure the raw fault response: the
// audit engine is always on, checks every tick and reports to a recorder
// of the cell's own (it supplies the drop and duplication counts and
// cannot interfere with a shared -events stream), and there are no
// reliable endpoints — they would mask the damage under test, and break
// the byte identity of `-latency const:1 -reliable on`. The driver sets
// the faults.
func (o Options) envLocal(cell int, seed uint64) env {
	e := o.envTraced(cell)
	e.trace = trace.New()
	e.audit = audit.NewEngine(e.scope, seed, 1, e.trace)
	e.reliable = reliable.Config{}
	return e
}

// newCore builds the §4 network at the parameters every experiment uses
// (d = 8, α = 2, ε = 1) under e.
func newCore(e env, seed uint64, n int) *core.Network {
	nw := core.NewNetwork(core.Config{Seed: seed, N0: n, D: 8, Alpha: 2, Epsilon: 1,
		Latency: e.latency, Reliable: e.reliable})
	if e.trace != nil {
		nw.SetTrace(e.trace, e.scope)
	}
	if e.audit != nil {
		nw.SetAudit(e.audit)
	}
	inject(nw, e.faults)
	return nw
}

// inject puts spec's message injector on a §4 network; a spec without
// message faults detaches it, which is how R1's partition heals.
func inject(nw *core.Network, spec fault.Spec) {
	var inj sim.Injector
	if i := spec.Injector(); i != nil {
		inj = i
	}
	nw.SetInjector(inj)
}

// newSupernode builds the §5 network from cfg under e.
func newSupernode(e env, cfg supernode.Config) *supernode.Network {
	cfg.Shards = e.shards
	nw := supernode.New(cfg)
	e.attach(nw)
	return nw
}

// newSplitMerge builds the §6 network from cfg under e.
func newSplitMerge(e env, cfg splitmerge.Config) *splitmerge.Network {
	cfg.Shards = e.shards
	nw := splitmerge.New(cfg)
	e.attach(nw)
	return nw
}

func (e env) attach(nw interface {
	SetAudit(*audit.Engine)
	SetFaults(fault.Spec)
	SetLatency(sim.Latency)
}) {
	if e.audit != nil {
		nw.SetAudit(e.audit)
	}
	nw.SetFaults(e.faults)
	nw.SetLatency(e.deadline)
}

// overlay is a §5 or §6 network as the cross-stack experiments (AS1, R1,
// S3) see it. The upper-case methods are the networks' own; s5 and s6
// level the rest.
type overlay interface {
	Round() int
	EpochRounds() int
	KnowledgeComponents() []int // component sizes of the nodes' current knowledge graph
	CorruptState(pick uint64) string
	SetFaults(fault.Spec)
	Close()

	step() // one round with nobody blocked
	run(adv dos.Adversary, buf *dos.Buffer, rounds int)
	health() health
	n() int      // current members
	supers() int // current supernodes
	repair() int // the stack's repair protocol, between rounds; what it fixed
	// as1 is AS1's 20% adversary and how late its view is.
	as1(r *rng.RNG) (dos.Adversary, int)
}

// health is the part of both stacks' Stats the experiments report.
type health struct {
	measured, disconnected, stalls int
	messages                       int64
}

// cut opens spec's partition on nw for the next `rounds` rounds.
func cut(nw overlay, spec fault.Spec, rounds int) {
	spec.PartFrom, spec.PartWin = nw.Round()+1, rounds
	nw.SetFaults(spec)
}

type s5 struct {
	*supernode.Network
	size int
}

func (s s5) step()                                     { s.Step(nil) }
func (s s5) run(a dos.Adversary, b *dos.Buffer, k int) { s.Run(a, b, k) }
func (s s5) n() int                                    { return s.size }
func (s s5) supers() int                               { return s.NSuper() }
func (s s5) repair() int                               { return s.RepairGroups() }
func (s s5) health() health {
	st := s.StatsSnapshot()
	return health{st.MeasuredTotal, st.Disconnected, st.Stalls, st.Messages}
}
func (s s5) as1(r *rng.RNG) (dos.Adversary, int) {
	return &dos.GroupIsolate{Fraction: 0.2, R: r}, s.EpochRounds()
}

type s6 struct{ *splitmerge.Network }

func (s s6) step()                                     { s.Step(nil) }
func (s s6) run(a dos.Adversary, b *dos.Buffer, k int) { s.Run(a, b, k) }
func (s s6) n() int                                    { return s.N() }
func (s s6) supers() int                               { return s.NumSupers() }
func (s s6) repair() int                               { return s.RepairBalance() + s.RepairMembership() }
func (s s6) health() health {
	st := s.StatsSnapshot()
	return health{st.Measured, st.Disconnected, st.Stalls, st.Messages}
}
func (s s6) as1(r *rng.RNG) (dos.Adversary, int) {
	return &dos.Random{Fraction: 0.2, R: r, IDs: s.Members}, 2
}

// overlayKind is a stack as the cross-stack sweeps enumerate it.
type overlayKind struct {
	name string // S3's row label
	sec  int    // the paper's section: row label "name §sec", seed coordinate
	// eps1M is S3's sampling slack at n = 1M, where the default ε = 1
	// budget schedule would dominate memory, not the protocol state.
	eps1M float64
	// build makes the network; zero measureEvery and eps are the stack's
	// defaults (every round, ε = 1).
	build func(e env, seed uint64, n, measureEvery int, eps float64) overlay
}

func (k overlayKind) label() string { return fmt.Sprintf("%s §%d", k.name, k.sec) }

var overlayKinds = [...]overlayKind{
	{"supernode", 5, 0.25, func(e env, seed uint64, n, measureEvery int, eps float64) overlay {
		return s5{newSupernode(e, supernode.Config{Seed: seed, N: n, Epsilon: eps, MeasureEvery: measureEvery}), n}
	}},
	{"splitmerge", 6, 0.1, func(e env, seed uint64, n, measureEvery int, eps float64) overlay {
		return s6{newSplitMerge(e, splitmerge.Config{Seed: seed, N0: n, Epsilon: eps, MeasureEvery: measureEvery})}
	}},
}
