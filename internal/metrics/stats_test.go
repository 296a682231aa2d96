package metrics

import "testing"

// Summarize resolves quantiles through one clamped nearest-rank rule.
// Historically its inline q() had no clamp (it would index past the
// slice for p outside [0, 1]); these tables pin the rule for the
// degenerate lengths and the boundary quantiles.

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

	// len 2: nearest-rank floors p·(n−1), so p50, p90 and p99 all land
	// on the lower sample.
	s := Summarize([]float64{1, 5})
	if s.P50 != 1 || s.P90 != 1 || s.P99 != 1 {
		t.Errorf("Summarize(len 2) quantiles = %g/%g/%g, want 1/1/1", s.P50, s.P90, s.P99)
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
