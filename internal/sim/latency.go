package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Asynchronous execution mode: a deterministic discrete-event scheduler
// layered on the synchronous kernel.
//
// The paper's model is synchronous — every message sent in round i is
// delivered at the start of round i+1 — but real deployments are not.
// When Config.Latency is enabled each message is stamped with an
// arrival *tick* (rounds are subdivided into tickScale ticks) drawn from
// a per-edge latency distribution and delivered in the first round whose
// receive step its tick has reached. A message due next round stays in
// the send log, as on the synchronous path; one due later waits in the
// calendar bucket of its delivery round (mailbag.cal). Either way it
// reaches its receiver through the one inbox arena: place scatters the
// bucket due next round, then the log, stably, and under spread stably
// sorts each inbox by arrival tick. The inbox is so ordered by (arrival
// tick, send round, sender position, send sequence) — a total order
// over distinct messages — and delivery is byte-reproducible, exactly
// like the synchronous path.
//
// Determinism argument, in full:
//
//   - The delay of a message is a pure function delayTicks(seed, round,
//     from, to) of the network seed, the send round, and the edge — the
//     same splitmix64 finalizer construction the fault layer uses. No
//     sequential RNG is consumed, so the stamp never depends on
//     execution order (the §5/§6 engine's workers draw the same delays
//     through fault.ComposeGate).
//     All messages on one edge in one round share a delay, which makes
//     per-edge delivery FIFO within a round (links do not reorder a
//     burst); distinct rounds redraw.
//   - Ties: equal ticks are broken by send round, then sender position
//     in canonical spawn order, then the sender's send sequence: the
//     order the stable scatter leaves and the stable sort keeps. The
//     last two are exactly the synchronous kernel's canonical inbox
//     order, so the tie-break never consults arrival order. Injector
//     duplicates share a key but are identical values, so their mutual
//     order is irrelevant to the bytes produced.
//   - Without spread (Const d) every inbox of a round holds one send
//     round's messages at one tick, so no sort runs. With 0 < d <= 1
//     every message stays in the log and the run is the synchronous
//     kernel's, byte for byte: tables, work logs and tracer calls.
//
// The §5/§6 overlay stacks run whole protocol phases per sim-free
// round and cannot re-order intra-round delivery; they consume the same
// distributions through fault.ComposeGate, which drops messages whose
// sampled delay exceeds one virtual round (see internal/fault).

// LatencyKind selects the per-edge delay distribution.
type LatencyKind uint8

const (
	// LatencySync is the zero value: no event scheduler, the kernel
	// runs the synchronous round model.
	LatencySync LatencyKind = iota
	// LatencyConst delivers every message after exactly A rounds.
	LatencyConst
	// LatencyUniform draws delays uniformly from [A, B] rounds.
	LatencyUniform
	// LatencyLognorm draws delays from Lognormal(mu=A, sigma=B), in
	// rounds: heavy-tailed, the classic WAN latency shape.
	LatencyLognorm
)

// Latency configures the discrete-event scheduler. The zero value
// (LatencySync) keeps the synchronous kernel. Delays are measured in
// rounds; values are clamped to [1 tick, maxDelayRounds rounds], so a
// delay can never be zero (a message cannot arrive in its own send
// round) and a pathological lognormal draw cannot park a message
// forever.
type Latency struct {
	Kind LatencyKind
	A, B float64
}

const (
	// tickScale subdivides one round into 2^20 ticks; arrival times are
	// integers in tick units so comparisons are exact (no float order
	// ambiguity can reach the tie-break).
	tickScale = 1 << 20
	// maxDelayRounds caps a sampled delay.
	maxDelayRounds = 64
)

// Enabled reports whether the event scheduler is active.
func (l Latency) Enabled() bool { return l.Kind != LatencySync }

// Spread reports whether two draws can differ — false for Sync and
// Const. A spread-free configuration delivers every message exactly
// ceil(A) rounds after it was sent; with A <= 1 that reproduces the
// synchronous schedule.
func (l Latency) Spread() bool {
	switch l.Kind {
	case LatencyUniform:
		return l.A != l.B
	case LatencyLognorm:
		return l.B != 0
	}
	return false
}

// MaxRounds returns an upper bound on the sampled delay in rounds.
func (l Latency) MaxRounds() float64 {
	switch l.Kind {
	case LatencyConst:
		return min(l.A, maxDelayRounds)
	case LatencyUniform:
		return min(max(l.A, l.B), maxDelayRounds)
	case LatencyLognorm:
		if l.B == 0 {
			return min(math.Exp(l.A), maxDelayRounds)
		}
		return maxDelayRounds
	}
	return 1
}

// Validate checks the parameters.
func (l Latency) Validate() error {
	switch l.Kind {
	case LatencySync:
		return nil
	case LatencyConst:
		if l.A < 0 || math.IsNaN(l.A) || math.IsInf(l.A, 0) {
			return fmt.Errorf("latency const: delay %v out of range", l.A)
		}
	case LatencyUniform:
		if l.A < 0 || l.B < l.A || math.IsNaN(l.A) || math.IsInf(l.A, 0) || math.IsNaN(l.B) || math.IsInf(l.B, 0) {
			return fmt.Errorf("latency uniform: need 0 <= lo <= hi, got [%v, %v]", l.A, l.B)
		}
	case LatencyLognorm:
		if l.B < 0 || math.IsNaN(l.A) || math.IsInf(l.A, 0) || math.IsNaN(l.B) || math.IsInf(l.B, 0) {
			return fmt.Errorf("latency lognorm: need sigma >= 0, got mu=%v sigma=%v", l.A, l.B)
		}
	default:
		return fmt.Errorf("latency: unknown kind %d", l.Kind)
	}
	return nil
}

// String renders the spec in the form ParseLatency accepts.
func (l Latency) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch l.Kind {
	case LatencyConst:
		return "const:" + f(l.A)
	case LatencyUniform:
		return "uniform:" + f(l.A) + "," + f(l.B)
	case LatencyLognorm:
		return "lognorm:" + f(l.A) + "," + f(l.B)
	}
	return "sync"
}

// ParseLatency parses a latency spec: "sync" (or ""), "const:D",
// "uniform:LO,HI", or "lognorm:MU,SIGMA", with delays in rounds.
func ParseLatency(s string) (Latency, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "sync" {
		return Latency{}, nil
	}
	kind, rest, _ := strings.Cut(s, ":")
	var l Latency
	var want int
	switch kind {
	case "const":
		l.Kind, want = LatencyConst, 1
	case "uniform":
		l.Kind, want = LatencyUniform, 2
	case "lognorm":
		l.Kind, want = LatencyLognorm, 2
	default:
		return Latency{}, fmt.Errorf("latency: unknown kind %q (want sync, const, uniform, or lognorm)", kind)
	}
	parts := strings.Split(rest, ",")
	if len(parts) != want {
		return Latency{}, fmt.Errorf("latency %s: want %d parameter(s), got %q", kind, want, rest)
	}
	vals := make([]float64, want)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return Latency{}, fmt.Errorf("latency %s: bad parameter %q", kind, p)
		}
		vals[i] = v
	}
	l.A = vals[0]
	if want == 2 {
		l.B = vals[1]
	}
	return l, l.Validate()
}

// latMix is the splitmix64 finalizer — the same mixer the fault layer
// builds its schedules from (duplicated here because fault imports sim;
// covered by TestLatMixMatchesSplitmix).
func latMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// latUnit maps 64 hash bits to a float64 in [0, 1).
func latUnit(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// saltLatency separates the latency hash stream from every other use
// of the seed.
const saltLatency = 0xa24baed4963ee407

// delayTicks returns the delivery delay, in ticks, of a message sent on
// edge from→to in the given round: a pure function of its arguments.
// The result is clamped to
// [1, maxDelayRounds*tickScale].
func (l Latency) delayTicks(seed uint64, round int, from, to uint64) uint64 {
	var d float64
	switch l.Kind {
	case LatencyConst:
		d = l.A
	default:
		h := latMix(seed ^ saltLatency)
		h = latMix(h + uint64(round)*0x9e3779b97f4a7c15)
		h = latMix(h + from*0xd1342543de82ef95)
		h = latMix(h + to*0x2545f4914f6cdd1d)
		switch l.Kind {
		case LatencyUniform:
			d = l.A + (l.B-l.A)*latUnit(h)
		case LatencyLognorm:
			// Box-Muller on two hash-derived uniforms; u1 is kept away
			// from 0 so the log is finite.
			u1 := latUnit(h)
			if u1 < 1e-12 {
				u1 = 1e-12
			}
			u2 := latUnit(latMix(h ^ 0x6a09e667f3bcc909))
			z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			d = math.Exp(l.A + l.B*z)
		}
	}
	if !(d > 0) { // also catches NaN
		return 1
	}
	if d > maxDelayRounds {
		d = maxDelayRounds
	}
	t := uint64(math.Round(d * tickScale))
	if t < 1 {
		t = 1
	}
	return t
}

// Late reports whether the message sent on edge from→to in round would
// miss the next virtual round, i.e. its sampled delay exceeds one
// round. The §5/§6 stacks use it (via fault.ComposeGate) to drop late
// messages instead of re-ordering them: their epochs are virtual
// rounds that cannot express multi-round deferral.
func (l Latency) Late(seed uint64, round int, from, to uint64) bool {
	return l.delayTicks(seed, round, from, to) > tickScale
}
