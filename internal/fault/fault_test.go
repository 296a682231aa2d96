package fault

import (
	"math"
	"strings"
	"testing"

	"overlaynet/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{},
		{Drop: 0.01},
		{Dup: 0.001},
		{Crash: 0.05},
		{Crash: 0.05, Restart: 3},
		{Drop: 0.02, Dup: 0.002, Crash: 0.1, Restart: 2},
	}
	for _, want := range specs {
		s := want.String()
		if !want.Active() {
			if s != "none" {
				t.Errorf("zero spec renders %q, want \"none\"", s)
			}
			continue
		}
		got, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		// String omits restart when it equals the default of 1, and
		// RestartEpochs normalizes 0 to 1, so compare through that.
		if got.Drop != want.Drop || got.Dup != want.Dup || got.Crash != want.Crash ||
			got.RestartEpochs() != want.RestartEpochs() {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", s, got, want)
		}
	}
}

func TestParseSpecAcceptsSeedAndSpaces(t *testing.T) {
	got, err := ParseSpec(" drop=0.25 , seed=99 ")
	if err != nil {
		t.Fatal(err)
	}
	if got.Drop != 0.25 || got.Seed != 99 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"drop",             // not key=value
		"splat=0.5",        // unknown key
		"drop=lots",        // not a float
		"drop=1.5",         // out of range
		"crash=-0.1",       // out of range
		"drop=0.6,dup=0.6", // bands overlap
		"restart=-1",       // negative
		"seed=abc",         // not a uint
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestInjectorPurity pins the determinism contract documented on
// sim.Injector: re-evaluating the same message must give the same fate,
// because the §5/§6 engine's workers ask in no fixed order.
func TestInjectorPurity(t *testing.T) {
	in := Spec{Seed: 7, Drop: 0.2, Dup: 0.1}.Injector()
	for round := 0; round < 20; round++ {
		for seq := uint64(0); seq < 50; seq++ {
			a := in.Deliveries(round, 3, 9, seq)
			b := in.Deliveries(round, 3, 9, seq)
			if a != b {
				t.Fatalf("round %d seq %d: %d then %d", round, seq, a, b)
			}
			if c := in.CopiesAt(round, 3, 9, int(seq)); c != a {
				t.Fatalf("CopiesAt disagrees with Deliveries: %d vs %d", c, a)
			}
		}
	}
}

// TestInjectorEmpiricalRates checks the unit-interval banding: over many
// independent message identities the drop and dup frequencies must land
// near the configured rates, and the three outcomes must partition.
func TestInjectorEmpiricalRates(t *testing.T) {
	const dropRate, dupRate = 0.1, 0.05
	in := Spec{Seed: 42, Drop: dropRate, Dup: dupRate}.Injector()
	const trials = 200000
	var drops, dups int
	for i := 0; i < trials; i++ {
		switch in.Deliveries(i%97, sim.NodeID(i%31), sim.NodeID(i%53), uint64(i)) {
		case 0:
			drops++
		case 2:
			dups++
		}
	}
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{{"drop", float64(drops) / trials, dropRate}, {"dup", float64(dups) / trials, dupRate}} {
		// 5 sigma on a binomial with p ~= 0.1 over 200k trials.
		tol := 5 * math.Sqrt(c.want*(1-c.want)/trials)
		if math.Abs(c.got-c.want) > tol {
			t.Errorf("%s rate %.4f, want %.4f +/- %.4f", c.name, c.got, c.want, tol)
		}
	}
}

func TestInjectorNilWhenNoMessageFaults(t *testing.T) {
	if in := (Spec{Crash: 0.5}).Injector(); in != nil {
		t.Fatal("crash-only spec returned a non-nil message injector")
	}
	if in := (Spec{}).Injector(); in != nil {
		t.Fatal("zero spec returned a non-nil message injector")
	}
}

// TestCrashSchedule checks determinism, the zero-rate fast path, the
// empirical rate, and that distinct seeds give distinct schedules.
func TestCrashSchedule(t *testing.T) {
	s := Spec{Seed: 11, Crash: 0.25}
	for epoch := 0; epoch < 10; epoch++ {
		for id := uint64(1); id <= 40; id++ {
			if s.Crashes(epoch, id) != s.Crashes(epoch, id) {
				t.Fatal("crash schedule is not pure")
			}
		}
	}
	if (Spec{Seed: 11}).Crashes(3, 5) {
		t.Fatal("zero crash rate crashed a node")
	}
	const trials = 100000
	crashes := 0
	for i := 0; i < trials; i++ {
		if s.Crashes(i/1000, uint64(i%1000)+1) {
			crashes++
		}
	}
	rate := float64(crashes) / trials
	if math.Abs(rate-0.25) > 5*math.Sqrt(0.25*0.75/trials) {
		t.Errorf("crash rate %.4f, want 0.25", rate)
	}
	other := Spec{Seed: 12, Crash: 0.25}
	same := 0
	for id := uint64(1); id <= 1000; id++ {
		if s.Crashes(0, id) == other.Crashes(0, id) {
			same++
		}
	}
	if same == 1000 {
		t.Error("two different seeds produced identical crash schedules")
	}
}

func TestRestartEpochsFloor(t *testing.T) {
	if got := (Spec{}).RestartEpochs(); got != 1 {
		t.Fatalf("RestartEpochs() = %d, want 1", got)
	}
	if got := (Spec{Restart: 4}).RestartEpochs(); got != 4 {
		t.Fatalf("RestartEpochs() = %d, want 4", got)
	}
}

func TestStringStableOrder(t *testing.T) {
	s := Spec{Drop: 0.01, Dup: 0.002, Crash: 0.1, Restart: 2}.String()
	if s != strings.Join([]string{"crash=0.1", "drop=0.01", "dup=0.002", "restart=2"}, ",") {
		t.Fatalf("String() = %q", s)
	}
}

// TestComposeGate pins when an overlay stack gets a delivery gate: an
// untyped nil exactly when nothing can touch delivery, the bare injector
// when the latency model can never miss the one-round deadline, and a
// gate that applies injected faults first and the deadline second
// otherwise. The nil cases guard the typed-nil trap: a nil *Injector
// wrapped in a non-nil Gate passes a caller's nil check and panics on
// the first message.
func TestComposeGate(t *testing.T) {
	const seed = 1
	never := sim.Latency{Kind: sim.LatencyConst, A: 1}
	spread := sim.Latency{Kind: sim.LatencyUniform, A: 0.5, B: 2}
	part := Spec{Seed: 3, PartK: 2, PartFrom: 2, PartWin: 4}
	dropDup := Spec{Seed: 3, Drop: 0.1, Dup: 0.1}

	if g := ComposeGate((Spec{}).Injector(), sim.Latency{}, seed); g != nil {
		t.Fatal("zero spec and no latency produced a gate")
	}
	// Crash faults act on the blocked set before generation, not on
	// messages in transit.
	if g := ComposeGate((Spec{Seed: 3, Crash: 0.1}).Injector(), sim.Latency{}, seed); g != nil {
		t.Fatal("message-fault-free spec produced a gate (typed-nil trap)")
	}
	if g := ComposeGate(part.Injector(), sim.Latency{}, seed); g == nil {
		t.Fatal("partition window left no gate; cut messages would be delivered")
	}
	if g := ComposeGate(nil, never, seed); g != nil {
		t.Fatal("zero-spread latency (never late) must compose to no gate")
	}
	in := dropDup.Injector()
	if g := ComposeGate(in, never, seed); g != Gate(in) {
		t.Fatal("zero-spread latency must compose to the bare injector")
	}
	late := ComposeGate(nil, spread, seed)
	if late == nil {
		t.Fatal("latency with spread > 1 round left no gate")
	}
	both := ComposeGate(in, spread, seed)
	drops, lates, dups := 0, 0, 0
	for idx := 0; idx < 4000; idx++ {
		from, to := uint64(idx%50+1), uint64(idx%31+100)
		inj, lat, got := in.CopiesAt(7, from, to, idx), late.CopiesAt(7, from, to, idx), both.CopiesAt(7, from, to, idx)
		want := inj
		if lat == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("message %d: composed gate gives %d copies, injector %d and deadline %d", idx, got, inj, lat)
		}
		switch {
		case inj == 0:
			drops++
		case lat == 0:
			lates++
		case inj > 1:
			dups++
		}
	}
	if drops == 0 || lates == 0 || dups == 0 {
		t.Fatalf("composition sample saw %d drops, %d late and %d duplicated messages, want all three", drops, lates, dups)
	}
}
