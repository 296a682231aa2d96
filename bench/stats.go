package main

import "sort"

// summary is how an end-to-end metric is reported. Value is the
// metric; the rest states how the fresh blocks it was computed from
// spread. LeaveOneOut holds the value recomputed without each block in
// turn: how far those lie apart is the noise of Value itself.
type summary struct {
	Value       float64   `json:"value"`
	Median      float64   `json:"median"`
	Min         float64   `json:"min"`
	Q1          float64   `json:"q1"`
	Q3          float64   `json:"q3"`
	Max         float64   `json:"max"`
	Blocks      []float64 `json:"blocks"`
	LeaveOneOut []float64 `json:"leave_one_out"`
}

// summarize reports stat over all blocks, the per-block values, and
// stat again without each block in turn.
func summarize(blocks []*block, stat func([]*block) float64) summary {
	s := summary{Value: stat(blocks)}
	for i := range blocks {
		s.Blocks = append(s.Blocks, stat(blocks[i:i+1]))
		if len(blocks) > 1 {
			rest := append(append([]*block(nil), blocks[:i]...), blocks[i+1:]...)
			s.LeaveOneOut = append(s.LeaveOneOut, stat(rest))
		}
	}
	xs := sorted(s.Blocks)
	s.Min, s.Max = xs[0], xs[len(xs)-1]
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	return s
}

// noise is the range of the leave-one-out values around Value and that
// range as a share of Value: what -compare weighs a bound against.
func (s summary) noise() (lo, hi, share float64) {
	lo, hi = s.Value, s.Value
	for _, v := range s.LeaveOneOut {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, ratio(hi-lo, s.Value)
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// exclusive method), so numbers computed here and by the driver agree.
// xs must be sorted and non-empty.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	at := func(k int) float64 {
		n := len(xs)
		if n == 1 {
			return xs[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	_, m, _ := quartiles(sorted(xs))
	return m
}

// tail returns the highest percentile that still has at least ten
// samples beyond it, and which percentile that is. With fewer than
// eleven samples no such percentile exists and the maximum stands in
// (pct = 100), which the sample count printed beside it makes visible.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if len(s) < 11 {
		return s[len(s)-1], 100
	}
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b with 0 for an unmeasured base, so a probe that did not
// run reads 0 rather than Inf (JSON cannot carry Inf).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
