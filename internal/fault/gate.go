package fault

import "overlaynet/internal/sim"

// Gate is the per-message delivery decision consulted by the centrally
// simulated overlay stacks (§5 supernode, §6 splitmerge, through
// internal/committee), which run whole protocol phases per virtual
// round and therefore do not go through the sim kernel's send step.
// *Injector implements it; ComposeGate layers the discrete-event latency
// model on top.
//
// Like sim.Injector, every implementation MUST be a pure function of
// its arguments: under the engine's sharded rounds whichever worker
// owns the target asks, and the answer must not depend on who asks or
// when for results to stay byte-identical across -procs/OVERLAYNET_SHARDS.
//
// The engine queues every generated message and, only when the Gate is
// non-nil — injector, partition window, or latency deadline — walks the
// round's fresh messages once to mark each with its copy count; a nil
// Gate means that pass is skipped, nothing else.
type Gate interface {
	CopiesAt(round int, from, to uint64, index int) int
}

// latencyGate drops messages whose sampled delay exceeds one virtual
// round. The §5/§6 epochs are sequences of virtual rounds with a hard
// synchrony assumption baked into their phase structure, so a message
// that the discrete-event model would deliver late is modeled as lost
// for that phase — the standard reduction of an asynchronous system to
// a lossy synchronous one. The decision reuses sim.Latency's pure
// (seed, round, edge) delay hash, so it is deterministic at any worker
// layout, and it composes with the fault injector: injected drops and
// duplicates apply first, then the deadline.
type latencyGate struct {
	inner Gate // nil when only latency is active
	lat   sim.Latency
	seed  uint64
}

func (g *latencyGate) CopiesAt(round int, from, to uint64, index int) int {
	copies := 1
	if g.inner != nil {
		copies = g.inner.CopiesAt(round, from, to, index)
	}
	if copies > 0 && g.lat.Late(g.seed, round, from, to) {
		return 0
	}
	return copies
}

// ComposeGate builds the delivery gate for an overlay stack from its
// fault injector and latency model. It returns an untyped nil when
// neither can affect delivery — never a non-nil interface wrapping a
// nil *Injector, which a caller's nil check would take for a gate and
// call through — and returns the bare injector when the latency model
// can never miss the one-round deadline (sync, or zero-spread with
// delay <= 1), so a zero-spread configuration is bit-for-bit the
// synchronous run.
func ComposeGate(inner *Injector, lat sim.Latency, seed uint64) Gate {
	canBeLate := lat.Enabled() && lat.MaxRounds() > 1
	if !canBeLate {
		if inner == nil {
			return nil
		}
		return inner
	}
	g := &latencyGate{lat: lat, seed: seed}
	if inner != nil {
		g.inner = inner
	}
	return g
}
