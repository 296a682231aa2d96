package reliable

import (
	"fmt"
	"strings"
	"testing"

	"overlaynet/internal/audit"
	"overlaynet/internal/fault"
	"overlaynet/internal/sim"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in      string
		want    Config
		errPart string // "" means no error; else the substring the message must name
	}{
		{in: "", want: Config{}},
		{in: "off", want: Config{}},
		{in: "on", want: On()},
		{in: "rto=4", want: Config{On: true, RTO: 4, Backoff: DefaultBackoff, Budget: DefaultBudget}},
		{in: "rto=4, budget=3", want: Config{On: true, RTO: 4, Backoff: DefaultBackoff, Budget: 3}},
		{in: "stretch=16,budget=2", want: Config{On: true, RTO: DefaultRTO, Backoff: DefaultBackoff, Budget: 2, Stretch: 16}},
		{in: "rto", errPart: `"rto" is not key=value`},
		{in: "rto=x", errPart: "rto"},
		{in: "bogus=1", errPart: `unknown key "bogus"`},
		{in: "rto=2", errPart: "rto=2"},
		{in: "backoff=0", errPart: "backoff=0"},
		{in: "budget=-1", errPart: "budget=-1"},
		{in: "stretch=-2", errPart: "stretch=-2"},
	}
	for _, tc := range cases {
		got, err := ParseConfig(tc.in)
		if tc.errPart != "" {
			if err == nil {
				t.Errorf("ParseConfig(%q): want error naming %q, got nil", tc.in, tc.errPart)
			} else if !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("ParseConfig(%q): error %q does not name %q", tc.in, err, tc.errPart)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseConfig(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseConfig(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestConfigStringRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{},
		On(),
		{On: true, RTO: 4, Backoff: 2, Budget: 3, Stretch: 16},
		{On: true, RTO: 3, Backoff: 3, Budget: 5},
	} {
		s := cfg.String()
		if !cfg.On {
			if s != "none" {
				t.Errorf("disabled config String() = %q, want none", s)
			}
			continue
		}
		back, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("ParseConfig(String() = %q): %v", s, err)
		}
		if back != cfg {
			t.Errorf("round trip %+v -> %q -> %+v", cfg, s, back)
		}
	}
}

func TestEffectiveStretch(t *testing.T) {
	must := func(s string) sim.Latency {
		l, err := sim.ParseLatency(s)
		if err != nil {
			t.Fatalf("ParseLatency(%q): %v", s, err)
		}
		return l
	}
	cfg := On()
	if got := cfg.EffectiveStretch(sim.Latency{}); got != 1 {
		t.Errorf("sync stretch = %d, want 1", got)
	}
	if got := cfg.EffectiveStretch(must("const:1")); got != 1 {
		t.Errorf("const:1 stretch = %d, want 1 (no spread)", got)
	}
	if got := cfg.EffectiveStretch(must("uniform:0.5,2.5")); got != 5 {
		t.Errorf("uniform:0.5,2.5 stretch = %d, want ceil(2.5)+2 = 5", got)
	}
	if got := cfg.EffectiveStretch(must("lognorm:0.5,0.8")); got != maxStretch {
		t.Errorf("lognorm stretch = %d, want cap %d", got, maxStretch)
	}
	cfg.Stretch = 7
	if got := cfg.EffectiveStretch(must("lognorm:0.5,0.8")); got != 7 {
		t.Errorf("explicit stretch = %d, want 7", got)
	}
}

func TestStretchedRounds(t *testing.T) {
	if got := StretchedRounds(10, 1); got != 10 {
		t.Errorf("StretchedRounds(10,1) = %d, want 10", got)
	}
	if got := StretchedRounds(10, 4); got != 40 {
		t.Errorf("StretchedRounds(10,4) = %d, want 40", got)
	}
	if got := StretchedRounds(0, 4); got != 0 {
		t.Errorf("StretchedRounds(0,4) = %d, want 0", got)
	}
}

func TestAttemptDelayBounds(t *testing.T) {
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 6}
	for attempt := 0; attempt <= cfg.Budget; attempt++ {
		for seed := uint64(0); seed < 32; seed++ {
			d := AttemptDelay(cfg, seed, 17, 4, 9, attempt)
			if d2 := AttemptDelay(cfg, seed, 17, 4, 9, attempt); d2 != d {
				t.Fatalf("AttemptDelay not deterministic: %d vs %d", d, d2)
			}
			base := cfg.RTO
			for i := 0; i < attempt && base < maxAttemptDelay; i++ {
				base *= cfg.Backoff
			}
			if base > maxAttemptDelay {
				base = maxAttemptDelay
			}
			if d < base || d > base+base/2 {
				t.Fatalf("attempt %d seed %d: delay %d outside [%d, %d]", attempt, seed, d, base, base+base/2)
			}
		}
	}
	if dl := ScheduleDeadline(cfg, 1, 17, 4, 9); dl > (cfg.Budget+1)*maxAttemptDelay*3/2 {
		t.Fatalf("deadline %d exceeds budget bound", dl)
	}
}

// token is the test protocol's payload: node v sends one to its ring
// successor every protocol round.
type token struct{ N int }

// pingNode is a minimal round-driven protocol for exercising the
// endpoint: it counts arrivals and failures, and its send pattern is
// identical whether or not it is wrapped.
type pingNode struct {
	peer   sim.NodeID
	rounds int
	sent   int
	got    int
	failed int
}

func (p *pingNode) OnRound(ctx *sim.Ctx, inbox []sim.Message) bool {
	for i := range inbox {
		if _, ok := inbox[i].Payload.(token); ok {
			p.got++
		}
	}
	if p.sent < p.rounds {
		ctx.Send(p.peer, token{N: p.sent}, 32)
		p.sent++
	}
	return true
}

func (p *pingNode) OnDeliveryFailure(to sim.NodeID) { p.failed++ }

// runRing runs n pingNodes for `rounds` protocol rounds and returns the
// nodes plus the network for stats inspection. cfg.On selects wrapped
// vs legacy spawning; latSpec may be "" for the synchronous model.
func runRing(t *testing.T, seed uint64, n, rounds, shards int, latSpec string, cfg Config, spec fault.Spec) ([]*pingNode, *sim.Network) {
	t.Helper()
	var lat sim.Latency
	if latSpec != "" {
		var err error
		lat, err = sim.ParseLatency(latSpec)
		if err != nil {
			t.Fatalf("ParseLatency(%q): %v", latSpec, err)
		}
	}
	net := sim.NewNetwork(sim.Config{Seed: seed, Shards: shards, Latency: lat})
	if inj := spec.Injector(); inj != nil {
		net.SetInjector(inj)
	}
	nodes := make([]*pingNode, n)
	stretch := cfg.EffectiveStretch(lat)
	for v := 0; v < n; v++ {
		nodes[v] = &pingNode{peer: sim.NodeID((v+1)%n + 1), rounds: rounds}
		if cfg.Enabled() {
			net.SpawnHandler(sim.NodeID(v+1), Wrap(seed, cfg, stretch, nodes[v]))
		} else {
			net.SpawnHandler(sim.NodeID(v+1), nodes[v])
		}
	}
	// Slack rounds let the final tokens' retransmit schedules run their
	// full course, so every message ends as delivered or failed.
	slack := stretch * 2
	if cfg.Enabled() {
		slack += (cfg.Budget + 1) * maxAttemptDelay * 3 / 2
	}
	net.Run(StretchedRounds(rounds+2, stretch) + slack)
	net.Shutdown()
	return nodes, net
}

// TestZeroSpreadSilence: on a perfect network the reliable layer acks
// but never retransmits, discards, or fails, and the protocol-lane work
// columns match the unwrapped run exactly — the byte-identity argument
// for the zero-spread CI check, in miniature.
func TestZeroSpreadSilence(t *testing.T) {
	for _, latSpec := range []string{"", "const:1"} {
		legacy, lnet := runRing(t, 42, 8, 10, 0, latSpec, Config{}, fault.Spec{})
		wrapped, wnet := runRing(t, 42, 8, 10, 0, latSpec, On(), fault.Spec{})
		rs := wnet.ReliabilityStats()
		if rs.Retransmits != 0 || rs.Failures != 0 || rs.Stale != 0 {
			t.Fatalf("lat %q: reliable layer not silent on perfect network: %+v", latSpec, rs)
		}
		if rs.Acks == 0 {
			t.Fatalf("lat %q: no acks flowed", latSpec)
		}
		for v := range legacy {
			if legacy[v].got != wrapped[v].got {
				t.Fatalf("lat %q node %d: wrapped got %d, legacy %d", latSpec, v, wrapped[v].got, legacy[v].got)
			}
		}
		// The wrapped run has extra slack rounds at the end (runRing gives
		// reliable runs room for retransmit schedules); over the common
		// prefix the protocol-lane work must match exactly, and the slack
		// tail must be idle.
		lw, ww := lnet.Work(), wnet.Work()
		if len(ww) < len(lw) {
			t.Fatalf("lat %q: wrapped work log shorter: %d vs %d", latSpec, len(ww), len(lw))
		}
		for i := range lw {
			if lw[i].Messages != ww[i].Messages || lw[i].TotalBits != ww[i].TotalBits ||
				lw[i].MaxNodeBits != ww[i].MaxNodeBits {
				t.Fatalf("lat %q round %d: protocol work diverged: legacy %+v, reliable %+v",
					latSpec, i, lw[i], ww[i])
			}
		}
		for i := len(lw); i < len(ww); i++ {
			if ww[i].Messages != 0 {
				t.Fatalf("lat %q round %d: protocol traffic in the slack tail: %+v", latSpec, i, ww[i])
			}
		}
	}
}

// TestDropRecovery: under message loss the wrapped protocol receives
// what the legacy protocol loses, paid for in retransmits.
func TestDropRecovery(t *testing.T) {
	spec := fault.Spec{Seed: 7, Drop: 0.3}
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 4, Stretch: 16}
	legacy, _ := runRing(t, 42, 8, 10, 0, "const:1", Config{}, spec)
	wrapped, wnet := runRing(t, 42, 8, 10, 0, "const:1", cfg, spec)
	lgot, wgot, sent, failed := 0, 0, 0, 0
	for v := range legacy {
		lgot += legacy[v].got
		wgot += wrapped[v].got
		sent += wrapped[v].sent
		failed += wrapped[v].failed
	}
	if lgot >= sent {
		t.Fatalf("drop fault not active: legacy got %d of %d", lgot, sent)
	}
	if wgot <= lgot {
		t.Fatalf("reliable layer recovered nothing: %d vs legacy %d", wgot, lgot)
	}
	rs := wnet.ReliabilityStats()
	if rs.Retransmits == 0 {
		t.Fatal("no retransmits under drop=0.3")
	}
	// Every token is either delivered or reported failed (a delivered
	// token whose acks all dropped may be double-counted, hence ≥).
	if wgot+failed < sent {
		t.Fatalf("tokens unaccounted: got %d + failed %d < sent %d", wgot, failed, sent)
	}
}

// TestShardInvariance pins the ignored sim.Config.Shards (kept while
// bench/ sets it) under the reliable layer: its full observable output —
// work log including control-lane columns, reliability totals, and
// protocol state — at Shards: 4 equals the default's.
func TestShardInvariance(t *testing.T) {
	spec := fault.Spec{Seed: 7, Drop: 0.2}
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 3, Stretch: 8}
	base, bnet := runRing(t, 42, 16, 8, 0, "uniform:0.5,2.5", cfg, spec)
	shrd, snet := runRing(t, 42, 16, 8, 4, "uniform:0.5,2.5", cfg, spec)
	if b, s := bnet.ReliabilityStats(), snet.ReliabilityStats(); b != s {
		t.Fatalf("reliability totals diverge across shards: %+v vs %+v", b, s)
	}
	bw, sw := bnet.Work(), snet.Work()
	if len(bw) != len(sw) {
		t.Fatalf("work log length %d vs %d", len(bw), len(sw))
	}
	for i := range bw {
		if bw[i] != sw[i] {
			t.Fatalf("round %d work diverges: %+v vs %+v", i, bw[i], sw[i])
		}
	}
	for v := range base {
		if base[v].got != shrd[v].got || base[v].failed != shrd[v].failed {
			t.Fatalf("node %d state diverges across shards", v)
		}
	}
}

// violations collects audit reports.
type violations struct{ list []audit.Violation }

func (v *violations) ReportViolation(viol audit.Violation) { v.list = append(v.list, viol) }

// TestDupNoDoubleCount (interplay satellite): with dup faults on acked
// edges, the kernel ledger must stay exact — duplicate envelope copies
// enter Delivered and the dup credit side, control-lane dup copies stay
// out of both — and the endpoint must deliver each message to the
// protocol exactly once.
func TestDupNoDoubleCount(t *testing.T) {
	spec := fault.Spec{Seed: 7, Dup: 1.0}
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 3, Stretch: 8}
	var rep violations
	lat, err := sim.ParseLatency("const:1")
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewNetwork(sim.Config{Seed: 42, Latency: lat})
	net.SetInjector(spec.Injector())
	net.SetTracer(audit.NewWorkAuditor(&rep, nil))
	const n, rounds = 8, 10
	nodes := make([]*pingNode, n)
	for v := 0; v < n; v++ {
		nodes[v] = &pingNode{peer: sim.NodeID((v+1)%n + 1), rounds: rounds}
		net.SpawnHandler(sim.NodeID(v+1), Wrap(42, cfg, cfg.Stretch, nodes[v]))
	}
	net.Run(StretchedRounds(rounds+2, cfg.Stretch))
	net.Shutdown()
	for _, viol := range rep.list {
		t.Errorf("ledger violation: round %d: %s", viol.Round, viol.Detail)
	}
	for v := range nodes {
		if nodes[v].got != rounds {
			t.Errorf("node %d: got %d tokens, want %d (dup copies must dedup)", v, nodes[v].got, rounds)
		}
	}
}

// TestDropStormBudgetCap (interplay satellite): under drop=1.0 nothing
// is ever delivered or acked, so every message must burn through its
// exact retransmit budget — no more — and then surface as a delivery
// failure at the sender.
func TestDropStormBudgetCap(t *testing.T) {
	spec := fault.Spec{Seed: 7, Drop: 1.0}
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 3, Stretch: 8}
	nodes, net := runRing(t, 42, 8, 6, 0, "const:1", cfg, spec)
	sent, failed := 0, 0
	for v := range nodes {
		if nodes[v].got != 0 {
			t.Fatalf("node %d received %d tokens under drop=1.0", v, nodes[v].got)
		}
		sent += nodes[v].sent
		failed += nodes[v].failed
	}
	rs := net.ReliabilityStats()
	if want := int64(sent * cfg.Budget); rs.Retransmits != want {
		t.Fatalf("retransmits %d, want exactly budget × messages = %d", rs.Retransmits, want)
	}
	if rs.Acks != 0 {
		t.Fatalf("%d acks under drop=1.0", rs.Acks)
	}
	if int(rs.Failures) != sent || failed != sent {
		t.Fatalf("failures: kernel %d, protocol %d, want %d", rs.Failures, failed, sent)
	}
}

// TestEndpointStats sanity-checks the stale path: with spread and
// stretch 1, anything late or retransmitted arrives after its phase and
// must be counted stale, never delivered twice.
func TestStaleDiscard(t *testing.T) {
	cfg := Config{On: true, RTO: 3, Backoff: 2, Budget: 2, Stretch: 1}
	nodes, net := runRing(t, 42, 8, 12, 0, "uniform:0.5,3.5", cfg, fault.Spec{})
	rs := net.ReliabilityStats()
	if rs.Stale == 0 {
		t.Fatal("wide spread at stretch 1 produced no stale arrivals")
	}
	for v := range nodes {
		if nodes[v].got > nodes[v].rounds {
			t.Fatalf("node %d: got %d > sent %d (stale copy delivered)", v, nodes[v].got, nodes[v].rounds)
		}
	}
}

func ExampleParseConfig() {
	cfg, _ := ParseConfig("rto=4,budget=3,stretch=16")
	fmt.Println(cfg)
	// Output: budget=3,rto=4,stretch=16
}
