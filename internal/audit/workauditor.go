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
// drops, plus its duplicated extra copies, minus the copies it moved
// into the latency calendar, plus the copies it placed out of it.
// Inboxes of nodes that departed at the end of round r-1 are absorbed
// silently (the kernel recycles their slots), so a shortfall is
// tolerated — but only in rounds following a departure; any other
// mismatch is reported as a "work-conservation" violation. Control-lane
// traffic (acks and retransmit copies) is outside the ledger: the
// kernel counts it in Work.CtlMessages and Reliability, never in
// Messages or Delivered.
type WorkAuditor struct {
	next sim.Tracer
	rep  Reporter

	prev       sim.RoundStats // the previous round's, without samples
	haveRound  bool
	havePrevA  bool
	prevAlive  int
	spawns     int
	departures int

	checked, mismatches int
}

// NewWorkAuditor returns a WorkAuditor reporting to rep and forwarding
// every tracer hook to next (which may be nil). Attach the result with
// Network.SetTracer.
func NewWorkAuditor(rep Reporter, next sim.Tracer) *WorkAuditor {
	return &WorkAuditor{next: next, rep: rep}
}

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
		p := &a.prev
		dead, fault := p.Dropped[sim.DropDeadReceiver], p.Dropped[sim.DropFaultInjected]
		expected := int64(p.Work.Messages - dead - fault + p.DupExtra - p.CalendarIn + p.CalendarOut)
		a.checked++
		if stats.Delivered > expected || (stats.Delivered < expected && a.departures == 0) {
			a.mismatches++
			if a.rep != nil {
				a.rep.ReportViolation(Violation{
					Invariant: "work-conservation",
					Round:     stats.Round,
					Detail: fmt.Sprintf("delivered %d, ledger expects %d (prev sent %d, dead %d, fault %d, dup extra %d, calendar in %d out %d absorbed %d, departures %d)",
						stats.Delivered, expected, p.Work.Messages, dead, fault, p.DupExtra,
						p.CalendarIn, p.CalendarOut, p.CalendarAbsorbed, a.departures),
				})
			}
		}
	}
	a.haveRound = true
	a.prev = stats
	a.prev.Inbox, a.prev.Bits = nil, nil
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
