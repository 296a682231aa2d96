package fault

import (
	"testing"

	"overlaynet/internal/sim"
)

// FuzzScheduleDerivation checks the pure-schedule contract on arbitrary
// inputs: every per-message, per-epoch and per-round decision must be
// in range, idempotent (the same query always returns the same answer —
// the §5/§6 engine's workers ask in no fixed order), and
// consistent across the derived helpers. Nothing may panic.
func FuzzScheduleDerivation(f *testing.F) {
	f.Add(uint64(42), 0.01, 0.01, 0.5, 3, 10, 7, int64(12), uint64(5), uint64(9), int64(3))
	f.Add(uint64(0), 0.0, 0.0, 0.0, 2, 0, 1, int64(0), uint64(0), uint64(0), int64(0))
	f.Add(^uint64(0), 1.0, 1.0, 1.0, 9, -4, -1, int64(-8), ^uint64(0), uint64(1), int64(-1))
	f.Fuzz(func(t *testing.T, seed uint64, drop, dup, corrupt float64, partK, partFrom, partWin int, round int64, from, to uint64, epoch int64) {
		dr, du := clamp01(drop), clamp01(dup)
		if dr+du > 1 { // Validate requires drop+dup <= 1
			du = 1 - dr
		}
		s := Spec{Seed: seed, Drop: dr, Dup: du, Corrupt: clamp01(corrupt),
			PartK: bound(partK, 2, 64), PartFrom: bound(partFrom, 0, 1<<20), PartWin: bound(partWin, 0, 1<<20)}
		if err := s.Validate(); err != nil {
			t.Fatalf("bounded spec failed validation: %v", err)
		}
		r := int(round % (1 << 30))
		if r < 0 {
			r = -r
		}
		e := int(epoch % (1 << 30))
		if e < 0 {
			e = -e
		}

		if c := s.Component(from); c < 0 || c >= s.PartK {
			t.Fatalf("Component(%d) = %d out of [0,%d)", from, c, s.PartK)
		}
		if s.CutsEdge(r, from, to) != s.CutsEdge(r, to, from) {
			t.Fatal("CutsEdge not symmetric")
		}
		if s.CutsEdge(r, from, from) {
			t.Fatal("CutsEdge cuts a self edge")
		}
		if s.CutsEdge(r, from, to) && !s.Partitioned(r) {
			t.Fatal("edge cut outside the partition window")
		}
		if k := s.Components(r); k < 1 || (k == 1) == s.Partitioned(r) || (k > 1 && s.Component(from) >= k) {
			t.Fatalf("Components(%d) = %d with window open %v, Component(%d) = %d", r, k, s.Partitioned(r), from, s.Component(from))
		}
		if s.CorruptsAt(e) != s.CorruptsAt(e) || s.CorruptPick(e) != s.CorruptPick(e) {
			t.Fatal("corruption schedule not idempotent")
		}
		if s.Corrupt == 0 && s.CorruptsAt(e) {
			t.Fatal("zero corruption rate still corrupts")
		}
		if s.Crashes(e, from) != s.Crashes(e, from) {
			t.Fatal("crash schedule not idempotent")
		}

		inj := s.Injector()
		if inj == nil {
			return
		}
		n := inj.Deliveries(r, sim.NodeID(from), sim.NodeID(to), to^from)
		if n < 0 || n > 2 {
			t.Fatalf("Deliveries = %d out of [0,2]", n)
		}
		if again := inj.Deliveries(r, sim.NodeID(from), sim.NodeID(to), to^from); again != n {
			t.Fatalf("Deliveries not pure: %d then %d", n, again)
		}
		if s.CutsEdge(r, from, to) && n != 0 {
			t.Fatalf("partition-cut message delivered %d copies", n)
		}
		full := Spec{Seed: seed, Drop: 1}
		if got := full.Injector().Deliveries(r, sim.NodeID(from), sim.NodeID(to), to^from); got != 0 {
			t.Fatalf("drop=1 delivered %d copies", got)
		}
	})
}

// FuzzParseSpec checks that arbitrary spec strings never panic the
// parser and that every spec the parser accepts validates, renders via
// String, and re-parses to an equivalent spec (a full round trip).
func FuzzParseSpec(f *testing.F) {
	f.Add("drop=0.01,dup=0.001,crash=0.05,restart=2")
	f.Add("partk=2,partwin=30,partfrom=5,corrupt=0.5,seed=7")
	f.Add("")
	f.Add("drop=,=,,=x")
	f.Add("drop=1e999")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted an invalid spec: %v", in, err)
		}
		if !s.Active() {
			return
		}
		rendered := s.String()
		back, err := ParseSpec(rendered)
		if err != nil {
			t.Fatalf("String() output %q does not re-parse: %v", rendered, err)
		}
		back.Seed = s.Seed // String omits the seed
		if back != s {
			t.Fatalf("round trip changed the spec: %+v -> %q -> %+v", s, rendered, back)
		}
	})
}

func clamp01(x float64) float64 {
	switch {
	case x < 0 || x != x: // negative or NaN
		return 0
	case x > 1:
		return 1
	}
	return x
}

func bound(x, lo, hi int) int {
	if x < 0 {
		x = -x
	}
	if x < 0 { // MinInt
		return lo
	}
	return lo + x%(hi-lo+1)
}
