package metrics

import "testing"

// Both quantile entry points must resolve through the same clamped
// nearest-rank rule. Historically Summarize's inline q() had no clamp
// (it would index past the slice for p outside [0, 1], and disagreed
// with PercentileSortedInt64 by construction); these tables pin the
// unified behavior for the degenerate lengths and the boundary
// quantiles.

func TestQuantileIndexClamped(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0, 0}, {1, 0.5, 0}, {1, 0.99, 0}, {1, 1.0, 0},
		{2, 0, 0}, {2, 0.5, 0}, {2, 0.99, 0}, {2, 1.0, 1},
		{5, 0, 0}, {5, 0.5, 2}, {5, 0.99, 3}, {5, 1.0, 4},
		// Out-of-range p must clamp, never index out of bounds.
		{3, -0.5, 0}, {3, 1.5, 2}, {1, 2.0, 0},
	}
	for _, c := range cases {
		if got := quantileIndex(c.n, c.p); got != c.want {
			t.Errorf("quantileIndex(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentileSortedInt64Table(t *testing.T) {
	ps := []float64{0, 0.5, 0.99, 1.0}
	cases := []struct {
		name   string
		sorted []int64
		want   []int64 // one per entry of ps
	}{
		{"len0", nil, []int64{0, 0, 0, 0}},
		{"len1", []int64{7}, []int64{7, 7, 7, 7}},
		{"len2", []int64{3, 9}, []int64{3, 3, 3, 9}},
	}
	for _, c := range cases {
		for i, p := range ps {
			if got := PercentileSortedInt64(c.sorted, p); got != c.want[i] {
				t.Errorf("%s: PercentileSortedInt64(%v, %g) = %d, want %d",
					c.name, c.sorted, p, got, c.want[i])
			}
		}
	}
}

func TestSummarizeDegenerateLengths(t *testing.T) {
	// Zero samples must not panic and must return the zero Summary.
	if s := Summarize(nil); s.N != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero summary", s)
	}
	if s := Summarize([]float64{}); s.N != 0 {
		t.Errorf("Summarize(empty) = %+v, want zero summary", s)
	}

	if s := Summarize([]float64{4}); s.P50 != 4 || s.P90 != 4 || s.P99 != 4 || s.Min != 4 || s.Max != 4 {
		t.Errorf("Summarize(len 1) = %+v, want all quantiles 4", s)
	}

	// len 2: nearest-rank puts p50 on the lower sample, p90/p99 on the
	// upper — matching PercentileSortedInt64 on the same data.
	s := Summarize([]float64{1, 5})
	if s.P50 != 1 || s.P90 != 1 || s.P99 != 1 {
		t.Errorf("Summarize(len 2) quantiles = %g/%g/%g, want 1/1/1", s.P50, s.P90, s.P99)
	}
}

// TestQuantileAgreement checks the headline bug: Summarize and
// PercentileSortedInt64 must return the same value for the same
// quantile of the same sample.
func TestQuantileAgreement(t *testing.T) {
	samples := [][]int64{
		{5},
		{1, 2},
		{10, 20, 30},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	for _, xs := range samples {
		fs := make([]float64, len(xs))
		for i, x := range xs {
			fs[i] = float64(x)
		}
		s := Summarize(fs)
		for _, c := range []struct {
			p    float64
			from float64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			if want := float64(PercentileSortedInt64(xs, c.p)); c.from != want {
				t.Errorf("Summarize(%v) p%g = %g disagrees with PercentileSortedInt64 = %g",
					xs, c.p*100, c.from, want)
			}
		}
	}
}

func TestPooledTV(t *testing.T) {
	// Two nodes, four samples, one per outcome: exactly uniform, judged
	// against 3x the noise floor of four draws over four outcomes.
	tv, env := PooledTV([][]int{{0, 3}, {2, 1}}, 4)
	if tv != 0 || env != 3*ExpectedTVUniform(4, 4) {
		t.Fatalf("PooledTV = (%g, %g), want (0, %g)", tv, env, 3*ExpectedTVUniform(4, 4))
	}
	if tv, _ := PooledTV([][]int{{1, 1}, {1, 1}}, 4); tv != 0.75 {
		t.Fatalf("all mass on one of four outcomes: TV %g, want 0.75", tv)
	}
}
