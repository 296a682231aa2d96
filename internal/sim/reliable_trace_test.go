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
