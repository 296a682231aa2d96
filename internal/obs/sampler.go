package obs

import "overlaynet/internal/rng"

// splitmix64 is one step of the splitmix64 generator from state x: the
// golden-ratio increment, then rng.Mix64's bijective avalanche. Hashing
// an event identity through it gives an effectively uniform 64-bit
// value that is a pure function of the inputs — the property that makes
// sampling deterministic and placement-independent.
func splitmix64(x uint64) uint64 { return rng.Mix64(x + 0x9e3779b97f4a7c15) }

// Sampler makes deterministic keep/drop decisions at a configured
// rate. The decision for an event depends only on the sampler seed and
// the event's identity tuple — never on goroutine scheduling, shard
// count, or arrival order — so a sampled event stream is byte-identical
// at any -procs/OVERLAYNET_SHARDS setting.
type Sampler struct {
	seed      uint64
	threshold uint64 // keep iff hash < threshold
}

// NewSampler returns a sampler keeping approximately rate (clamped to
// [0,1]) of events. rate >= 1 keeps everything; rate <= 0 keeps
// nothing.
func NewSampler(seed uint64, rate float64) Sampler {
	var th uint64
	switch {
	case rate >= 1:
		th = ^uint64(0)
	case rate <= 0:
		th = 0
	default:
		th = uint64(rate * float64(1<<63) * 2)
	}
	return Sampler{seed: splitmix64(seed), threshold: th}
}

// Keep decides whether to keep the event identified by (a, b, c, d).
// Callers pack whatever identifies the event — kind, round, endpoints,
// payload size — into the four words; equal tuples always get equal
// decisions. Fixed arity keeps the call allocation-free.
func (s Sampler) Keep(a, b, c, d uint64) bool {
	if s.threshold == ^uint64(0) {
		return true
	}
	h := splitmix64(s.seed ^ splitmix64(a) ^ splitmix64(b<<1) ^ splitmix64(c<<2) ^ splitmix64(d<<3))
	return h < s.threshold
}

// Rate reports the configured keep probability.
func (s Sampler) Rate() float64 {
	if s.threshold == ^uint64(0) {
		return 1
	}
	return float64(s.threshold) / (float64(1<<63) * 2)
}
