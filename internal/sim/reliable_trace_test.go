package sim_test

import (
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/reliable"
	. "overlaynet/internal/sim"
)

// TestTracedWorkIsLoggedWork: the Work a tracer sees at each round's end
// is the entry the work log appends, control lane included, for a flood
// behind reliable endpoints under latency spread and drops (acks and
// retransmits every round).
func TestTracedWorkIsLoggedWork(t *testing.T) {
	lat, err := ParseLatency("uniform:0.5,2.5")
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(Config{Seed: 17, Latency: lat})
	net.SetInjector(fault.Spec{Seed: 17, Drop: 0.05}.Injector())
	tr := &faultTracer{}
	net.SetTracer(tr)
	cfg := reliable.On()
	stretch := cfg.EffectiveStretch(lat)
	const n = 32
	flood := HandlerFunc(func(ctx *Ctx, _ []Message) bool {
		for j := 1; j <= 3; j++ {
			ctx.Send(NodeID((int(ctx.ID())+j)%n+1), j, 16)
		}
		return true
	})
	for i := 0; i < n; i++ {
		net.SpawnHandler(NodeID(i+1), reliable.Wrap(17, cfg, stretch, flood))
	}
	net.Run(40)
	net.Shutdown()

	work := net.Work()
	if len(tr.stats) != len(work) {
		t.Fatalf("traced %d rounds, logged %d", len(tr.stats), len(work))
	}
	var ctl, retx int
	for i, st := range tr.stats {
		if st.Work != work[i] {
			t.Fatalf("round %d: traced work %+v, logged %+v", st.Round, st.Work, work[i])
		}
		ctl += st.Work.CtlMessages
		retx += st.Reliability.Retransmits
	}
	if ctl == 0 || retx == 0 {
		t.Fatalf("scenario sent %d control-lane messages, %d retransmits; want both", ctl, retx)
	}
}

// TestReliabilityReportsAddUp: the delivery failures, stale deliveries
// and ack delays that several nodes report in one round are that
// round's RoundStats.Reliability, summed over the rounds into
// ReliabilityStats. Round 1 sends nothing (no round scratch); rounds 2
// and 3 flood; round 4 reports nothing.
func TestReliabilityReportsAddUp(t *testing.T) {
	const n = 6
	net := NewNetwork(Config{Seed: 3})
	tr := &faultTracer{}
	net.SetTracer(tr)
	for i := 1; i <= n; i++ {
		net.SpawnHandler(NodeID(i), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			r := ctx.Round()
			if r == 4 {
				return true
			}
			for k := 0; k < i; k++ {
				ctx.ReportDeliveryFailure()
			}
			for k := 0; k < r*i; k++ {
				ctx.ReportStaleDelivery()
			}
			ctx.ObserveAckDelay(1 << (i - 1)) // bucket i-1
			ctx.ObserveAckDelay(0)            // bucket 0
			if r > 1 {
				ctx.Send(NodeID(i%n+1), r, 8)
			}
			return true
		}))
	}
	net.Run(4)
	var sum ReliabilityTotals
	for _, st := range tr.stats {
		var want ReliabilityRoundStats
		if st.Round < 4 {
			want = ReliabilityRoundStats{Failures: n * (n + 1) / 2, Stale: st.Round * n * (n + 1) / 2,
				AckDelay: [8]int32{n + 1, 1, 1, 1, 1, 1}}
		}
		if st.Reliability != want {
			t.Errorf("round %d: reliability %+v, want %+v", st.Round, st.Reliability, want)
		}
		sum.Failures += int64(st.Reliability.Failures)
		sum.Stale += int64(st.Reliability.Stale)
	}
	if got := net.ReliabilityStats(); got != sum || sum.Failures != 3*n*(n+1)/2 {
		t.Errorf("ReliabilityStats %+v, the rounds' sum %+v", got, sum)
	}
	net.Shutdown()
}
