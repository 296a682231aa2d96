package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"overlaynet/internal/rng"
)

func TestTVDistanceUniformExtremes(t *testing.T) {
	if got := TVDistanceUniform([]int{10, 10, 10, 10}); got != 0 {
		t.Fatalf("uniform counts TV = %f, want 0", got)
	}
	// All mass on one outcome of n: TV = 1 - 1/n.
	got := TVDistanceUniform([]int{100, 0, 0, 0})
	if math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("point-mass TV = %f, want 0.75", got)
	}
	if TVDistanceUniform(nil) != 0 || TVDistanceUniform([]int{0, 0}) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestTVDistanceBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		tv := TVDistanceUniform(counts)
		return tv >= 0 && tv <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTVDistanceEmpiricalUniform(t *testing.T) {
	// Sampling uniformly must give TV near the expected envelope.
	r := rng.New(1)
	const n, samples = 64, 100000
	counts := make([]int, n)
	for i := 0; i < samples; i++ {
		counts[r.Intn(n)]++
	}
	tv := TVDistanceUniform(counts)
	envelope := ExpectedTVUniform(n, samples)
	if tv > 3*envelope {
		t.Fatalf("uniform sampler TV %.5f exceeds 3x envelope %.5f", tv, envelope)
	}
}

func TestChiSquareUniform(t *testing.T) {
	if got := ChiSquareUniform([]int{5, 5, 5, 5}); got != 0 {
		t.Fatalf("chi2 of exact uniform = %f", got)
	}
	got := ChiSquareUniform([]int{20, 0})
	if math.Abs(got-20) > 1e-12 {
		t.Fatalf("chi2 = %f, want 20", got)
	}
}

// TestChiSquareBound compares the bound with the exact 10⁻⁵ quantile at
// even df, where the χ² tail is e^(−x/2)·Σ_{k<df/2} (x/2)^k/k!: it may
// err high, by at most 5 %, never low.
func TestChiSquareBound(t *testing.T) {
	tail := func(x float64, df int) (s float64) {
		term := 1.0
		for k := 0; k < df/2; k++ {
			if k > 0 {
				term *= x / 2 / float64(k)
			}
			s += term
		}
		return math.Exp(-x/2) * s
	}
	for _, df := range []int{4, 16, 64, 256} {
		lo, hi := 0.0, 4096.0
		for range 100 { // bisect for the exact quantile
			if mid := (lo + hi) / 2; tail(mid, df) > 1e-5 {
				lo = mid
			} else {
				hi = mid
			}
		}
		if b := ChiSquareBound(df); b < lo || b > 1.05*lo {
			t.Errorf("df=%d: bound %.2f, exact quantile %.2f", df, b, lo)
		}
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]int{1, 1, 1, 1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("entropy of uniform-4 = %f, want 2", got)
	}
	if got := Entropy([]int{7, 0, 0}); got != 0 {
		t.Fatalf("entropy of point mass = %f, want 0", got)
	}
	if Entropy(nil) != 0 {
		t.Fatal("entropy of empty = 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 5, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("stddev = %f", s.StdDev)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary should have N=0")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Summarize(xs)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Summarize mutated input")
	}
}

func TestSummarizeInts(t *testing.T) {
	s := SummarizeInts([]int{10, 20})
	if s.Mean != 15 || s.Min != 10 || s.Max != 20 {
		t.Fatalf("bad int summary %+v", s)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "n", "rounds", "tv")
	tb.AddRow(1024, 7, 0.0123)
	tb.AddRow("65536", "9", "")
	out := tb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "rounds") {
		t.Fatalf("missing header in:\n%s", out)
	}
	if !strings.Contains(out, "0.0123") || !strings.Contains(out, "65536") {
		t.Fatalf("missing cells in:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

// TestTableRendersByColumn pins the one rendering rule: a float in a
// column without a format at %.4g, a formatted column through its verb,
// a label or a Tuple as itself, anything else through fmt.Sprint.
func TestTableRendersByColumn(t *testing.T) {
	tb := NewTable("", "plain", "speed-up", "share", "ok", "quality").
		Format("speed-up", "%.1fx").Format("share", "%d%%")
	tb.AddRow(2.0/3, 2.63, 25, true, Tuple{Format: "disc %d/%d", Values: []any{3, 28}})
	tb.AddRow(12345678.0, "-", 100, false, "n/a")
	want := "plain      speed-up  share  ok     quality  \n" +
		"---------  --------  -----  -----  ---------\n" +
		"0.6667     2.6x      25%    true   disc 3/28\n" +
		"1.235e+07  -         100%   false  n/a      \n"
	if got := tb.String(); got != want {
		t.Fatalf("rendering:\n%q\nwant\n%q", got, want)
	}
	if v := tb.Value(0, "share"); v != 25 {
		t.Fatalf("Value(0, share) = %v, want the int 25", v)
	}
}

// TestTableRowWidthPanics: a row that does not match the header is a
// driver bug, never a padded or truncated row.
func TestTableRowWidthPanics(t *testing.T) {
	for _, row := range [][]any{{1}, {1, 2, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a row of %d cells under 2 columns did not panic", len(row))
				}
			}()
			NewTable("w", "a", "b").AddRow(row...)
		}()
	}
}

func TestPolylogEnvelope(t *testing.T) {
	if got := PolylogEnvelope(1024, 2, 1); math.Abs(got-100) > 1e-9 {
		t.Fatalf("log2(1024)^2 = %f, want 100", got)
	}
}
