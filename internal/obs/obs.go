// Package obs is the always-on metrics pipeline of the reproduction:
// named counters and streaming log-scale histograms designed
// to stay attached while a simulated network runs a million nodes per
// round.
//
// Design goals, in order:
//
//   - Hot-path cost ~0. Counters are banks of padded per-lane cells:
//     every writer (a shard worker, a sweep-cell driver, a tracer
//     instance) increments its own cache line, so attached metrics add
//     no atomics *contention* to the round loop, and a detached
//     registry adds nothing at all (every handle is nil-receiver safe,
//     like audit.Engine).
//   - Streaming distributions. Histogram is a fixed-bucket base-2
//     log-scale sketch (DDSketch-style): Observe is two atomic adds and
//     a bucket increment, quantiles are reconstructed from bucket
//     boundaries with bounded relative error. At n=10⁶ this replaces
//     the tracer's exact per-node sample sort (O(n log n) per round)
//     with O(n) bucket increments — the difference between "usable at
//     1M" and not.
//   - Deterministic sampling. Sampler is a pure splitmix64 hash of the
//     event identity, so a sampled "flight recorder" keeps the same
//     events at any -procs/-shards setting.
//   - Standard exposition. WritePrometheus renders the registry in
//     Prometheus text format (scrape it, or point cmd/overlaymon at
//     it); ParseText reads the same format back, so the dashboard and
//     the golden-file tests share one wire format.
//
// The package deliberately depends on nothing inside the repository:
// it is the transport-agnostic surface the ROADMAP's real-transport
// and async modes can reuse unchanged.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// MaxLanes bounds a registry's per-counter bank width; it matches the
// committee engine's worker cap so one lane per worker is always
// available.
const MaxLanes = 64

// DefaultLanes is the bank width used when NewRegistry is given 0: wide
// enough that the handful of concurrent writers a sweep runs (cells ×
// tracer instances) rarely share a line, small enough that a registry
// of a few dozen counters stays a few tens of KB.
const DefaultLanes = 16

// padCell is one 64-byte-aligned counter cell; the padding keeps
// adjacent lanes of a bank on distinct cache lines while different
// workers increment them concurrently.
type padCell struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing metric backed by a padded
// per-lane bank. All methods are nil-receiver safe, so holders of a
// possibly-detached metric handle call them unconditionally.
type Counter struct {
	name, help string
	bank       []padCell
}

// Add increments the counter by d on the given lane (wrapped into the
// bank, so any non-negative lane id is valid).
func (c *Counter) Add(lane int, d uint64) {
	if c == nil {
		return
	}
	c.bank[lane%len(c.bank)].v.Add(d)
}

// Inc is Add(lane, 1).
func (c *Counter) Inc(lane int) { c.Add(lane, 1) }

// Value sums the bank: the counter's current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var t uint64
	for i := range c.bank {
		t += c.bank[i].v.Load()
	}
	return t
}

// Name returns the registered metric name ("" on a nil handle).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Registry holds the named metrics of one process. Registration is
// get-or-create and safe for concurrent use; the returned handles are
// stable for the life of the registry. A nil *Registry is a valid
// detached pipeline: every method returns a nil handle whose operations
// are no-ops.
type Registry struct {
	lanes int

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	nextLane atomic.Uint64
}

// NewRegistry returns an empty registry whose counter banks are lanes
// wide (0 means DefaultLanes; the value is clamped to [1, MaxLanes]).
func NewRegistry(lanes int) *Registry {
	if lanes <= 0 {
		lanes = DefaultLanes
	}
	if lanes > MaxLanes {
		lanes = MaxLanes
	}
	return &Registry{
		lanes:    lanes,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Lane hands out writer lanes round-robin. A writer (tracer instance,
// network, worker) should take one lane at setup and use it for all of
// its increments: distinct writers then touch distinct cache lines.
func (r *Registry) Lane() int {
	if r == nil {
		return 0
	}
	return int(r.nextLane.Add(1)-1) % r.lanes
}

// Counter returns the counter registered under name, creating it on
// first use. Help is recorded on creation only.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		sanitizeMetricName(name)
		c = &Counter{name: name, help: help, bank: make([]padCell, r.lanes)}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		sanitizeMetricName(name)
		h = newHistogram(name, help)
		r.hists[name] = h
	}
	return h
}

// snapshotLists returns name-sorted copies of the metric lists, the
// stable iteration order every exporter uses.
func (r *Registry) snapshotLists() (cs []*Counter, hs []*Histogram) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	for _, c := range r.counters {
		cs = append(cs, c)
	}
	for _, h := range r.hists {
		hs = append(hs, h)
	}
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	sort.Slice(hs, func(i, j int) bool { return hs[i].name < hs[j].name })
	return cs, hs
}

// FlatSnapshot renders every metric as flat name → value pairs: plain
// names for counters; "<name>_count", "<name>_sum",
// "<name>_p50", "<name>_p95", and "<name>_max" for histograms
// (quantiles are bucket-bound estimates). This is the shape run
// manifests and the JSONL metrics line embed.
func (r *Registry) FlatSnapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	cs, hs := r.snapshotLists()
	m := make(map[string]float64, len(cs)+5*len(hs))
	for _, c := range cs {
		m[c.name] = float64(c.Value())
	}
	for _, h := range hs {
		s := h.Snapshot()
		m[h.name+"_count"] = float64(s.Count)
		m[h.name+"_sum"] = float64(s.Sum)
		m[h.name+"_p50"] = s.Quantile(0.50)
		m[h.name+"_p95"] = s.Quantile(0.95)
		m[h.name+"_max"] = s.Max()
	}
	return m
}

// sanitizeMetricName guards registration-time typos: Prometheus metric
// names must match [a-zA-Z_:][a-zA-Z0-9_:]*. The registry does not
// rewrite names — a bad name is a programming error worth a loud panic
// at registration, not a silently renamed series.
func sanitizeMetricName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}
