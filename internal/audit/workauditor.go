package audit

import (
	"fmt"

	"overlaynet/internal/sim"
)

// WorkAuditor is a sim.Tracer that audits the kernel's message ledger
// round by round: everything counted as sent must be accounted for as
// delivered or dropped. It wraps (and forwards to) an optional inner
// tracer, so it composes with the trace.Recorder tracers the drivers
// already attach.
//
// The ledger, per the sim.Tracer reconciliation contract: messages
// handed to nodes in round r's receive step equal the previous round's
// Work.Messages, minus that round's dead-receiver and fault-injected
// drops, plus its duplicated extra copies. Inboxes of nodes that
// departed at the end of round r-1 are absorbed silently (the kernel
// recycles their slots), so a shortfall is tolerated — but only in
// rounds following a departure; any other mismatch is reported as a
// "work-conservation" violation.
type WorkAuditor struct {
	next sim.Tracer
	rep  Reporter

	haveRound  bool
	prevMsgs   int
	prevDead   int
	prevFault  int
	prevDupX   int
	havePrevA  bool
	prevAlive  int
	spawns     int
	departures int

	curDead, curFault, curDupX int

	checked, mismatches int
}

// NewWorkAuditor returns a WorkAuditor reporting to rep and forwarding
// every tracer hook to next (which may be nil). Attach the result with
// Network.SetTracer.
func NewWorkAuditor(rep Reporter, next sim.Tracer) *WorkAuditor {
	return &WorkAuditor{next: next, rep: rep}
}

// Checked returns how many rounds the ledger was verified for.
func (a *WorkAuditor) Checked() int { return a.checked }

// Mismatches returns how many rounds failed the ledger check.
func (a *WorkAuditor) Mismatches() int { return a.mismatches }

func (a *WorkAuditor) RoundStart(round, alive int) {
	if a.havePrevA {
		// Nodes that departed at the end of the previous round are the
		// gap between who should be here (previous alive + spawns since)
		// and who is.
		a.departures = a.prevAlive + a.spawns - alive
	}
	a.havePrevA = true
	a.prevAlive = alive
	a.spawns = 0
	if a.next != nil {
		a.next.RoundStart(round, alive)
	}
}

func (a *WorkAuditor) RoundEnd(stats sim.RoundStats) {
	if a.haveRound {
		expected := int64(a.prevMsgs - a.prevDead - a.prevFault + a.prevDupX)
		a.checked++
		if stats.Delivered > expected || (stats.Delivered < expected && a.departures == 0) {
			a.mismatches++
			a.report(Violation{
				Invariant: "work-conservation",
				Round:     stats.Round,
				Detail: fmt.Sprintf("delivered %d, ledger expects %d (prev sent %d, dead %d, fault %d, dup extra %d, departures %d)",
					stats.Delivered, expected, a.prevMsgs, a.prevDead, a.prevFault, a.prevDupX, a.departures),
			})
		}
	}
	a.haveRound = true
	a.prevMsgs = stats.Work.Messages
	a.prevDead, a.prevFault, a.prevDupX = a.curDead, a.curFault, a.curDupX
	a.curDead, a.curFault, a.curDupX = 0, 0, 0
	if a.next != nil {
		a.next.RoundEnd(stats)
	}
}

func (a *WorkAuditor) NodeSpawned(round int, id sim.NodeID) {
	a.spawns++
	if a.next != nil {
		a.next.NodeSpawned(round, id)
	}
}

func (a *WorkAuditor) MessageDropped(round int, reason sim.DropReason, from, to sim.NodeID, bits int) {
	switch reason {
	case sim.DropDeadReceiver:
		a.curDead++
	case sim.DropFaultInjected:
		a.curFault++
	}
	if a.next != nil {
		a.next.MessageDropped(round, reason, from, to, bits)
	}
}

// MessageDuplicated enters the extra copies on the ledger's credit side.
func (a *WorkAuditor) MessageDuplicated(round int, from, to sim.NodeID, bits, copies int) {
	a.curDupX += copies - 1
	if a.next != nil {
		a.next.MessageDuplicated(round, from, to, bits, copies)
	}
}

func (a *WorkAuditor) RoundSamples(round int, inbox, bits []int64) {
	if a.next != nil {
		a.next.RoundSamples(round, inbox, bits)
	}
}

func (a *WorkAuditor) RoundDeferred(round, deferred int) {
	if a.next != nil {
		a.next.RoundDeferred(round, deferred)
	}
}

// RoundReliability only forwards. The control-lane traffic it describes
// is deliberately outside the work-conservation ledger (see the sim lane
// constants): acks and retransmit copies are accounted in
// RoundWork.CtlMessages/CtlBits, never in Messages or Delivered, so the
// ledger arithmetic above stays exact with a reliable layer attached.
func (a *WorkAuditor) RoundReliability(round int, stats sim.ReliabilityRoundStats) {
	if a.next != nil {
		a.next.RoundReliability(round, stats)
	}
}

func (a *WorkAuditor) report(v Violation) {
	if a.rep != nil {
		a.rep.ReportViolation(v)
	}
}
