package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split(1)
	b := parent.Split(2)
	a2 := parent.Split(1)
	// Same id twice gives the same stream; different ids differ.
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatalf("Split(1) not reproducible at step %d", i)
		}
	}
	a = parent.Split(1)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("Split(1) and Split(2) produced identical streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(123)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced parent state")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	// Chi-square with 9 degrees of freedom; 99.9% quantile ~ 27.88.
	expected := float64(trials) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.88 {
		t.Fatalf("chi-square %.2f too large; counts %v", chi2, counts)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const trials = 100000
	for i := 0; i < trials; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f far from 0.5", mean)
	}
}

func TestCoinFair(t *testing.T) {
	r := New(6)
	heads := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Coin() {
			heads++
		}
	}
	if math.Abs(float64(heads)/trials-0.5) > 0.01 {
		t.Fatalf("coin heads fraction %.4f far from 0.5", float64(heads)/trials)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(10)
	const n, trials = 6, 60000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	expected := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > 5*math.Sqrt(expected) {
			t.Fatalf("Perm first element %d count %d far from %f", i, c, expected)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := New(seed).Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(12)
	n := 10
	vals := make([]string, n)
	for i := range vals {
		vals[i] = string(rune('a' + i))
	}
	orig := append([]string(nil), vals...)
	r.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	// Still a permutation of the original multiset.
	seen := map[string]int{}
	for _, v := range vals {
		seen[v]++
	}
	for _, v := range orig {
		seen[v]--
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("shuffle lost/duplicated element %q", k)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// TestMix64KnownAnswers pins Mix64 to the splitmix64 reference: from
// state 1234567, each output is Mix64 of the state advanced by the
// golden-ratio increment. Every fault, latency, retransmit and sampling
// schedule in the repo hashes through Mix64, so a changed constant
// would silently redraw all of them. Unit keeps the top 53 bits.
func TestMix64KnownAnswers(t *testing.T) {
	x := uint64(1234567)
	for i, want := range []uint64{
		6457827717110365317, 3203168211198807973, 9817491932198370423,
		4593380528125082431, 16408922859458223821,
	} {
		x += 0x9e3779b97f4a7c15
		if got := Mix64(x); got != want {
			t.Errorf("output %d = %d, want %d", i, got, want)
		}
	}
	if Mix64(0) != 0 {
		t.Error("Mix64(0) != 0")
	}
	if got := [3]float64{Unit(0), Unit(1 << 63), Unit(^uint64(0))}; got != [3]float64{0, 0.5, 1 - 1.0/(1<<53)} {
		t.Errorf("Unit(0, 2^63, 2^64-1) = %v", got)
	}
}
