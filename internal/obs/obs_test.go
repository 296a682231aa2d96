package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterLanesSumAndNilSafety(t *testing.T) {
	r := NewRegistry(8)
	c := r.Counter("overlaynet_test_total", "test counter")
	for lane := 0; lane < 20; lane++ { // deliberately beyond bank width
		c.Add(lane, uint64(lane+1))
	}
	want := uint64(20 * 21 / 2)
	if got := c.Value(); got != want {
		t.Fatalf("Value = %d, want %d", got, want)
	}
	if again := r.Counter("overlaynet_test_total", "other help"); again != c {
		t.Fatal("get-or-create returned a different handle")
	}

	var nilC *Counter
	nilC.Add(0, 5)
	nilC.Inc(3)
	if nilC.Value() != 0 {
		t.Fatal("nil counter not inert")
	}
	var nilH *Histogram
	nilH.Observe(42)
	if s := nilH.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	var nilR *Registry
	if nilR.Counter("x", "") != nil || nilR.Histogram("x", "") != nil {
		t.Fatal("nil registry returned non-nil handle")
	}
	if nilR.Lane() != 0 || nilR.FlatSnapshot() != nil {
		t.Fatal("nil registry helpers not inert")
	}
}

func TestCounterConcurrentLanes(t *testing.T) {
	r := NewRegistry(16)
	c := r.Counter("overlaynet_concurrent_total", "")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(lane)
			}
		}(r.Lane())
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestLaneRoundRobin(t *testing.T) {
	r := NewRegistry(4)
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		seen[r.Lane()]++
	}
	for lane := 0; lane < 4; lane++ {
		if seen[lane] != 2 {
			t.Fatalf("lane %d handed out %d times, want 2", lane, seen[lane])
		}
	}
}

func TestBadMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on invalid metric name")
		}
	}()
	NewRegistry(1).Counter("bad name with spaces", "")
}

func TestHistogramBucketsMonotone(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and
	// bucket indices must be monotone in the value.
	prev := 0
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100,
		1000, 1 << 20, 1<<40 + 12345, 1 << 55} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex(%d)=%d < previous %d: not monotone", v, idx, prev)
		}
		prev = idx
		if v > 0 && bucketUpperBound(idx) < v {
			t.Fatalf("value %d above its bucket upper bound %d", v, bucketUpperBound(idx))
		}
		if idx > 0 && v > 0 && bucketUpperBound(idx-1) >= v {
			t.Fatalf("value %d not above previous bucket bound %d", v, bucketUpperBound(idx-1))
		}
	}
	// The extreme top of the int64 range lands in octave 62's last
	// sub-bucket, whose exact upper bound is MaxInt64 itself.
	top := bucketIndex(math.MaxInt64)
	if top >= numBuckets {
		t.Fatalf("bucketIndex(MaxInt64) = %d out of table", top)
	}
	if bucketUpperBound(top) != math.MaxInt64 {
		t.Fatalf("top bucket bound = %d, want MaxInt64", bucketUpperBound(top))
	}
}

func TestHistogramQuantileError(t *testing.T) {
	h := newHistogram("overlaynet_q")
	const n = 100000
	for i := int64(1); i <= n; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != n || s.Sum != n*(n+1)/2 {
		t.Fatalf("count/sum wrong: %d %d", s.Count, s.Sum)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := s.Quantile(q)
		want := q * n
		if rel := math.Abs(got-want) / want; rel > 0.20 {
			t.Fatalf("q%.2f = %.0f, want ~%.0f (rel err %.2f > 0.20)", q, got, want, rel)
		}
		if got > float64(s.MaxSeen) {
			t.Fatalf("quantile %v above exact max %d", got, s.MaxSeen)
		}
	}
	if s.Max() != n {
		t.Fatalf("Max = %v, want %d", s.Max(), int64(n))
	}
	if got, want := float64(s.Sum)/float64(s.Count), float64(n+1)/2; math.Abs(got-want) > 0.5 {
		t.Fatalf("Sum/Count = %v, want %v", got, want)
	}
}

// TestObserveAllMatchesObserve pins the bulk path to the scalar path:
// identical count, sum, max, and per-bucket tallies for the same
// values, including non-positive ones, and nil/empty safety.
func TestObserveAllMatchesObserve(t *testing.T) {
	vals := []int64{-5, 0, 1, 2, 3, 4, 7, 8, 100, 1 << 20, math.MaxInt64, 3, 3}
	one := newHistogram("overlaynet_one")
	for _, v := range vals {
		one.Observe(v)
	}
	bulk := newHistogram("overlaynet_bulk")
	bulk.ObserveAll(vals)
	a, b := one.Snapshot(), bulk.Snapshot()
	if a.Count != b.Count || a.Sum != b.Sum || a.MaxSeen != b.MaxSeen {
		t.Fatalf("count/sum/max diverge: %d/%d/%d vs %d/%d/%d",
			a.Count, a.Sum, a.MaxSeen, b.Count, b.Sum, b.MaxSeen)
	}
	if a.Buckets != b.Buckets {
		t.Fatal("bucket tallies diverge between Observe and ObserveAll")
	}
	var nilH *Histogram
	nilH.ObserveAll(vals) // must not panic
	bulk.ObserveAll(nil)
	if bulk.Snapshot().Count != a.Count {
		t.Fatal("empty ObserveAll changed the histogram")
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := newHistogram("overlaynet_e")
	if s := h.Snapshot(); s.Quantile(0.5) != 0 || s.Max() != 0 || s.Count != 0 || s.Sum != 0 {
		t.Fatal("empty snapshot not zero")
	}
	h.Observe(-3)
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 2 || s.Buckets[0] != 2 {
		t.Fatalf("non-positive values should land in bucket 0: %+v", s)
	}
}

func TestFlatSnapshot(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("overlaynet_c_total", "").Add(0, 5)
	h := r.Histogram("overlaynet_h", "")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	m := r.FlatSnapshot()
	if m["overlaynet_c_total"] != 5 {
		t.Fatalf("scalar snapshot wrong: %v", m)
	}
	if m["overlaynet_h_count"] != 100 || m["overlaynet_h_sum"] != 5050 {
		t.Fatalf("histogram snapshot wrong: %v", m)
	}
	if m["overlaynet_h_p50"] <= 0 || m["overlaynet_h_max"] != 100 {
		t.Fatalf("histogram quantiles wrong: %v", m)
	}
}
