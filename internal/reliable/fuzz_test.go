package reliable

import (
	"fmt"
	"strings"
	"testing"

	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

// FuzzRetransmitSchedule checks the retransmit/backoff derivation's
// invariants for arbitrary identity tuples, backoffs and budgets:
// determinism (the schedule is a pure function — recomputation agrees),
// bounds (every delay sits in [base, 3·base/2], base rto·Backoff^a capped at
// maxAttemptDelay), monotonicity of the backoff base, and the
// budget-bound deadline (the whole schedule, and therefore the failure
// report, happens within (Budget+1)·3/2·maxAttemptDelay rounds).
func FuzzRetransmitSchedule(f *testing.F) {
	f.Add(uint64(1), 0, uint64(1), uint64(2), 2, 5)
	f.Add(uint64(42), 100, uint64(7), uint64(7), 1, 0)
	f.Add(^uint64(0), 1<<30, ^uint64(0), uint64(0), 16, 32)
	f.Fuzz(func(t *testing.T, seed uint64, round int, src, dst uint64, backoff, budget int) {
		if backoff < 1 || backoff > 16 || budget < 0 || budget > 32 {
			t.Skip()
		}
		if round < 0 {
			t.Skip()
		}
		cfg := Config{On: true, Backoff: backoff, Budget: budget}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("in-range config invalid: %v", err)
		}
		prevBase := 0
		total := 0
		for a := 0; a <= budget; a++ {
			d := AttemptDelay(cfg, seed, round, src, dst, a)
			if d2 := AttemptDelay(cfg, seed, round, src, dst, a); d2 != d {
				t.Fatalf("attempt %d: nondeterministic delay %d vs %d", a, d, d2)
			}
			base := rto
			for i := 0; i < a && base < maxAttemptDelay; i++ {
				base *= backoff
			}
			if base > maxAttemptDelay {
				base = maxAttemptDelay
			}
			if base < prevBase {
				t.Fatalf("attempt %d: backoff base shrank %d -> %d", a, prevBase, base)
			}
			prevBase = base
			if d < base || d > base+base/2 {
				t.Fatalf("attempt %d: delay %d outside [%d, %d]", a, d, base, base+base/2)
			}
			total += d
		}
		if bound := (budget + 1) * maxAttemptDelay * 3 / 2; total > bound {
			t.Fatalf("schedule %d rounds exceeds budget bound %d", total, bound)
		}
	})
}

// FuzzParseConfig checks the -reliable spec parser never panics, that
// it accepts only the disabled and the default config, and that
// String() round-trips through the parser unchanged.
func FuzzParseConfig(f *testing.F) {
	f.Add("")
	f.Add("on")
	f.Add("off")
	f.Add("rto=4,backoff=2,budget=3,stretch=16")
	f.Add("rto=,=,x")
	f.Add("stretch=9999999999999999999")
	f.Add("rto=3,rto=4")
	f.Fuzz(func(t *testing.T, s string) {
		cfg, err := ParseConfig(s)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "reliable: ") {
				t.Fatalf("error %q lacks package prefix", err)
			}
			return
		}
		if cfg != (Config{}) && cfg != On() {
			t.Fatalf("ParseConfig(%q) = %+v, want the zero config or On()", s, cfg)
		}
		back, err := ParseConfig(cfg.String())
		if err != nil {
			t.Fatalf("String() %q does not re-parse: %v", cfg.String(), err)
		}
		if back != cfg {
			t.Fatalf("round trip %q -> %+v -> %+v", s, cfg, back)
		}
	})
}

// onceNode is FuzzEndpointExactlyOnce's protocol: for `phases` protocol
// rounds it sends `sends` tokens to peers drawn from its generator, each
// numbered in send order (so the number is the envelope's Seq), and
// books every arrival, repeat and failure report per peer.
type onceNode struct {
	n, sends, phases int
	round            int
	sentTo, failedTo []int
	got              []map[int]bool // per sender: token numbers received
	repeats          int
}

func (o *onceNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	for i := range inbox {
		from, k := int(inbox[i].From)-1, inbox[i].Payload.(token).N
		if o.got[from][k] {
			o.repeats++
		}
		o.got[from][k] = true
	}
	if o.round++; o.round <= o.phases {
		for j := 0; j < o.sends; j++ {
			to := ctx.RNG().Intn(o.n)
			o.sentTo[to]++
			ctx.Send(sim.NodeID(to+1), token{N: (o.round-1)*o.sends + j}, 32)
		}
	}
	return true
}

func (o *onceNode) OnDeliveryFailure(to sim.NodeID) { o.failedTo[int(to)-1]++ }

// FuzzEndpointExactlyOnce drives whole networks of endpoints through
// fuzzed latency models, fault rates, stretches and loads and checks
// the layer's contract end to end: the protocol never sees the same
// (sender, seq) twice; once the network is quiet every envelope was
// either delivered or reported to its sender as failed — never silently
// lost; and no endpoint retains anything.
func FuzzEndpointExactlyOnce(f *testing.F) {
	// seed, n, stretch, latKind, latA, latB, drop, dup, sends, phases, budget
	f.Add(uint64(1), uint8(8), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(50), uint8(3), uint8(6), uint8(2))  // sync, dups, stretch 1
	f.Add(uint64(2), uint8(5), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(200), uint8(4), uint8(5), uint8(1)) // const:1 through the calendar, heavy dups, stretch 1
	f.Add(uint64(3), uint8(8), uint8(0), uint8(2), uint8(2), uint8(4), uint8(13), uint8(13), uint8(4), uint8(8), uint8(5)) // uniform spread, drops and dups, auto stretch
	f.Add(uint64(4), uint8(6), uint8(1), uint8(2), uint8(1), uint8(5), uint8(25), uint8(60), uint8(2), uint8(7), uint8(0)) // spread at stretch 1, budget 0: mostly stale
	f.Add(uint64(5), uint8(7), uint8(9), uint8(3), uint8(0), uint8(6), uint8(100), uint8(0), uint8(3), uint8(4), uint8(3)) // lognorm tail, 40 % drops, stretch 9
	f.Fuzz(func(t *testing.T, seed uint64, n, stretch, latKind, latA, latB, drop, dup, sends, phases, budget uint8) {
		var spec string
		switch latKind % 4 {
		case 1:
			spec = "const:1"
		case 2:
			lo := 0.5 + float64(latA%4)/2
			spec = fmt.Sprintf("uniform:%g,%g", lo, lo+float64(latB%8)/2)
		case 3:
			spec = fmt.Sprintf("lognorm:%g,%g", float64(latA%3)/2, 0.1+float64(latB%8)/10)
		}
		lat, err := sim.ParseLatency(spec)
		if err != nil {
			t.Skip()
		}
		nn, ns, np := int(n%8)+1, int(sends%6), int(phases%10)+1
		cfg := Config{On: true, Backoff: DefaultBackoff, Budget: int(budget % 4), Stretch: int(stretch % 13)}
		s := cfg.EffectiveStretch(lat)
		net := sim.NewNetwork(sim.Config{Seed: seed, Latency: lat})
		defer net.Shutdown()
		fs := fault.Spec{Seed: seed, Drop: float64(drop) / 255, Dup: float64(dup) / 255}
		if inj := fs.Injector(); inj != nil {
			net.SetInjector(inj)
		}
		nodes, eps := make([]*onceNode, nn), make([]*Endpoint, nn)
		for v := range nodes {
			o := &onceNode{n: nn, sends: ns, phases: np, sentTo: make([]int, nn), failedTo: make([]int, nn), got: make([]map[int]bool, nn)}
			for u := range o.got {
				o.got[u] = map[int]bool{}
			}
			nodes[v], eps[v] = o, Wrap(seed, cfg, s, o)
			net.SpawnHandler(sim.NodeID(v+1), eps[v])
		}
		// Quiet once the last phase's schedules have run their course and
		// every copy has landed (the scheduler caps a delay at 64 rounds);
		// rounded up to a boundary, where the last buffer is handed over.
		quiet := (np+1)*s + (cfg.Budget+1)*maxAttemptDelay*3/2 + 2*64
		net.Run((quiet/s + 1) * s)
		failures := 0
		for v, o := range nodes {
			if o.repeats != 0 {
				t.Fatalf("node %d was handed %d envelopes a second time", v, o.repeats)
			}
			if k := eps[v].retained(); k != 0 {
				t.Fatalf("node %d retains %d entries after quiescence", v, k)
			}
			for u, sent := range o.sentTo {
				failures += o.failedTo[u]
				if lost := sent - len(nodes[u].got[v]); lost > o.failedTo[u] {
					t.Fatalf("%d→%d: %d of %d envelopes undelivered but only %d failures reported", v, u, lost, sent, o.failedTo[u])
				}
			}
		}
		if rs := net.ReliabilityStats(); int(rs.Failures) != failures {
			t.Fatalf("kernel counted %d delivery failures, protocols heard %d", rs.Failures, failures)
		}
	})
}
