package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: base-2 octaves subdivided into subPerOctave
// log-linear sub-buckets, the classic HDR/DDSketch compromise. With 4
// sub-buckets per octave the worst-case relative error of a
// reconstructed quantile is 2^(1/4)-1 ≈ 19%, constant across the whole
// int64 range — good enough for the reported quantiles of round durations
// (ns), inbox depths, and message sizes, at a fixed 257×8-byte
// footprint per histogram.
const (
	subPerOctave = 4
	numOctaves   = 64
	// bucket 0 holds v <= 0; buckets 1..numBuckets-1 are the log-scale
	// range. Values 1..2^63-1 all map inside.
	numBuckets = 1 + numOctaves*subPerOctave
)

// Histogram is a streaming fixed-bucket log-scale distribution.
// Observe is wait-free (three atomic adds) and allocation-free;
// quantiles are reconstructed from bucket upper bounds on snapshot.
// Nil-receiver safe like the other handle types.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
}

func newHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex maps a value to its bucket: index 0 for v <= 0, values
// 1..3 map linearly (the octaves below 4 are too narrow to subdivide),
// and v >= 4 in octave k (2^k <= v < 2^(k+1), k >= 2) uses the top two
// bits below the leading bit as its sub-bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	u := uint64(v)
	if u < 4 {
		return int(u)
	}
	octave := bits.Len64(u) - 1 // 2..63
	sub := (u >> (uint(octave) - 2)) & 3
	return 1 + octave*subPerOctave + int(sub)
}

// bucketUpperBound is the largest value that maps to bucket i (exactly
// inverting bucketIndex); quantile reconstruction reports this bound.
// The handful of never-used indices below the first subdivided octave
// return the linear-region maximum so bounds stay monotone. Bounds in
// the top octave saturate at MaxInt64.
func bucketUpperBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i <= 3:
		return int64(i) // linear region
	case i <= 1+2*subPerOctave-1: // unused gap: octaves 0,1 slots
		return 3
	}
	k := i - 1
	octave := uint(k / subPerOctave)
	sub := uint64(k % subPerOctave)
	base := uint64(1) << octave
	width := base / subPerOctave
	ub := base + (sub+1)*width - 1
	if octave >= 63 || ub > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(ub)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveN records n identical observations of v with a constant
// number of atomic ops, regardless of n. It is the path for
// pre-bucketed counts (the reliable layer's ack-delay tallies arrive
// as per-round bucket×count pairs, not sample vectors).
func (h *Histogram) ObserveN(v int64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * int64(n))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(n)
}

// ObserveAll records every value of vals in one pass. It is the bulk
// hot path for per-round sample vectors (one entry per alive node at
// n up to 1M): count, sum, max, and the bucket tallies accumulate in
// locals — a stack array, no allocation — and flush with one atomic op
// per touched bucket instead of four atomic ops per sample.
func (h *Histogram) ObserveAll(vals []int64) {
	if h == nil || len(vals) == 0 {
		return
	}
	var counts [numBuckets]uint64
	var sum int64
	max := vals[0]
	for _, v := range vals {
		counts[bucketIndex(v)]++
		sum += v
		if v > max {
			max = v
		}
	}
	h.count.Add(uint64(len(vals)))
	h.sum.Add(sum)
	for {
		cur := h.max.Load()
		if max <= cur || h.max.CompareAndSwap(cur, max) {
			break
		}
	}
	for i, c := range counts {
		if c != 0 {
			h.buckets[i].Add(c)
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read
// while the source keeps streaming.
type HistSnapshot struct {
	Name    string
	Count   uint64
	Sum     int64
	MaxSeen int64
	Buckets [numBuckets]uint64
}

// Snapshot copies the histogram state. Buckets are loaded individually
// while writers may be active, so the copy is per-cell consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Name = h.name
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.MaxSeen = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile reconstructs the q-quantile (q in [0,1]) from the bucket
// counts: the upper bound of the bucket containing the q·Count-th
// observation. Returns 0 on an empty snapshot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			ub := bucketUpperBound(i)
			// The true maximum is tracked exactly; never report a
			// bucket bound beyond it.
			if int64(ub) > s.MaxSeen {
				return float64(s.MaxSeen)
			}
			return float64(ub)
		}
	}
	return float64(s.MaxSeen)
}

// Max returns the exact maximum observed value (0 on empty).
func (s HistSnapshot) Max() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.MaxSeen)
}
