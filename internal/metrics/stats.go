// Package metrics provides the statistics and table rendering used by
// the experiment harness: distribution distances for validating the
// sampling primitives, summary statistics, and aligned-text tables for
// the per-experiment reports.
package metrics

import (
	"math"
	"sort"
)

// TVDistanceUniform returns the total variation distance between the
// empirical distribution given by counts and the uniform distribution
// over len(counts) outcomes. Returns 0 for empty input.
func TVDistanceUniform(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	u := 1.0 / float64(n)
	sum := 0.0
	for _, c := range counts {
		sum += math.Abs(float64(c)/float64(total) - u)
	}
	return sum / 2
}

// ExpectedTVUniform returns the expected total variation distance of an
// empirical distribution built from `samples` i.i.d. uniform draws over
// n outcomes. For samples ≫ n it approaches sqrt(n/(2π·samples)) per
// outcome aggregated; we use the standard approximation
// TV ≈ sqrt(n / (2π·samples)) · n / n = sqrt(n/(2π·samples)) scaled —
// in practice we use it only as a tolerance envelope: a perfectly
// uniform sampler's empirical TV concentrates near this value, so tests
// accept measured TV below a small multiple of it.
func ExpectedTVUniform(n, samples int) float64 {
	if n == 0 || samples == 0 {
		return 0
	}
	// Each count is ~Poisson(λ=samples/n); E|c/samples − 1/n| ≈
	// sqrt(2λ/π)/samples, summed over n outcomes and halved.
	lambda := float64(samples) / float64(n)
	return float64(n) * math.Sqrt(2*lambda/math.Pi) / float64(samples) / 2
}

// PooledTV pools every node's samples over the n outcomes and returns
// their total variation distance to uniform together with the envelope
// it is judged against: 3x the distance expected of that many uniform
// draws, clamped at 1, the largest distance there is. An envelope of 1
// certifies nothing: so few samples survived that any law passes it.
func PooledTV(samples [][]int, n int) (tv, env float64) {
	counts := make([]int, n)
	total := 0
	for _, s := range samples {
		for _, w := range s {
			counts[w]++
			total++
		}
	}
	return TVDistanceUniform(counts), min(1, 3*ExpectedTVUniform(n, total))
}

// ChiSquareUniform returns the chi-square statistic of counts against
// the uniform distribution (df = len(counts)−1).
func ChiSquareUniform(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	expected := float64(total) / float64(n)
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// ChiSquareBound is the χ² quantile at df degrees of freedom that a
// uniform law exceeds with probability about 10⁻⁵ (Wilson–Hilferty; it
// errs high, by 4 % at df = 4 and under 1 % from df = 16).
func ChiSquareBound(df int) float64 {
	const z = 4.265 // standard normal quantile at 1 − 10⁻⁵
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+z*math.Sqrt(v), 3)
}

// Entropy returns the Shannon entropy (in bits) of the empirical
// distribution given by counts.
func Entropy(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// Summary holds order statistics of a sample.
type Summary struct {
	N             int
	Min, Max      float64
	Mean          float64
	P50, P90, P99 float64
	StdDev        float64
}

// Summarize computes summary statistics; it does not modify xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	sum, sumsq := 0.0, 0.0
	for _, x := range sorted {
		sum += x
		sumsq += x * x
	}
	s.Mean = sum / float64(len(sorted))
	variance := sumsq/float64(len(sorted)) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	q := func(p float64) float64 {
		return sorted[quantileIndex(len(sorted), p)]
	}
	s.P50, s.P90, s.P99 = q(0.50), q(0.90), q(0.99)
	return s
}

// quantileIndex returns the nearest-rank index of the p-quantile for a
// sample of length n > 0, clamped into [0, n-1] so out-of-range p (or
// floating-point spill at p = 1) can never index past the slice.
func quantileIndex(n int, p float64) int {
	idx := int(p * float64(n-1))
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// SummarizeInts is Summarize for integer samples.
func SummarizeInts(xs []int) Summary {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Summarize(fs)
}

// PolylogEnvelope returns C·log(n)^k, the envelope used to check
// "polylogarithmic" claims empirically.
func PolylogEnvelope(n int, k, c float64) float64 {
	return c * math.Pow(math.Log2(float64(n)), k)
}
