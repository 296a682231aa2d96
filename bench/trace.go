package main

import (
	"time"
)

// span is one call from the benchmark into a layer's public function.
// Spans of one operation share Op; Parent is an index into the same
// block's span list, -1 for an operation's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer appends spans to memory; nothing is written before the pass
// ends. A nil tracer is the untraced pass: every method is a no-op, so
// the workloads call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // open span, -1 at top level
	op    int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1, op: -1} }

// begin opens a span under the currently open one; a span opened at top
// level starts a new operation.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	if t.cur < 0 {
		t.op++
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: t.cur, Op: t.op})
	t.cur = int32(len(t.spans) - 1)
	return t.cur
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.cur = t.spans[i].Parent
}

// child records time attributed to a callee the benchmark cannot wrap
// call by call (the sampled handler time inside sim.Step): a span of
// the given length placed at the start of the open span.
func (t *tracer) child(name string, d time.Duration) {
	if t == nil || t.cur < 0 {
		return
	}
	p := t.spans[t.cur]
	t.spans = append(t.spans, span{Name: name, Start: p.Start, End: p.Start + int64(d), Parent: t.cur, Op: t.op})
}

// durations returns the length in ms of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in ms: a
// span's length minus the part its children cover.
func selfTimes(spans []span) map[string]float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ms()
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// clockNS is the cost of one time.Now/time.Since pair, subtracted from
// the sampled handler timings, which are of the same order.
func clockNS() float64 {
	const k = 200000
	t0 := time.Now()
	var sink time.Duration
	for i := 0; i < k; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0)) / k
}
