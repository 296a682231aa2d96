// Package reliable is the deterministic reliable-delivery layer: acked
// sends with per-message timeouts, bounded exponential backoff, and a
// retransmit budget, layered between a protocol handler and the sim
// kernel so the round-driven §3/§4 protocols win back their guarantees
// under latency spread and message loss.
//
// Every timing decision — when attempt a+1 of a message fires if the
// ack has not arrived — is a pure splitmix64 function of
// (seed, round, src, dst, attempt), never a sequential RNG stream, so
// runs stay byte-identical at any -procs and compose with the
// internal/fault injectors: a dropped envelope is retransmitted on a
// fixed schedule, and a fresh kernel send means a
// fresh fault and latency draw, which is exactly why retransmission
// recovers what the synchronous model loses.
//
// The layer's traffic rides the kernel's control lanes (sim.SendAck /
// sim.SendRetransmit): acks and retransmit copies share the blocking,
// fault, and latency machinery with protocol messages but are accounted
// separately (RoundWork.CtlMessages/CtlBits, ReliabilityRoundStats) and
// never enter the exact work-conservation ledger, so a zero-spread
// reliable run reproduces the synchronous tables bit for bit.
package reliable

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"overlaynet/internal/sim"
)

// Defaults. RTO = 3 is the smallest timeout that stays silent on a
// perfect network: an envelope sent at round r is delivered at r+1, its
// ack at r+2, one round before the first retransmit would fire.
const (
	DefaultRTO     = 3
	DefaultBackoff = 2
	DefaultBudget  = 5
	// maxAttemptDelay caps a single backoff interval (and its jitter),
	// mirroring the scheduler's 64-round delay cap.
	maxAttemptDelay = 64
	// maxStretch caps the automatic phase stretch; heavy-tailed models
	// (lognorm) report a 64-round worst case that no sane phase should
	// wait out — retransmission with fresh draws covers the tail instead.
	maxStretch = 12
	// AckBits is the accounted size of an acknowledgement (a send
	// sequence number plus header); acks live on the control lane, so
	// this figure only feeds the CtlBits column.
	AckBits = 64
)

// saltReliable keeps the retransmit-jitter hash stream independent of
// the fault and latency streams (fault.saltMessage, sim.saltLatency)
// and of exp.cellSeed's mixing constants.
const saltReliable = 0x5851f42d4c957f2d

// Config configures the reliable-delivery layer. The zero value
// disables it (Enabled() == false); On() and ParseConfig("on") give the
// defaults.
type Config struct {
	// On enables the layer. Separate from the parameter fields so the
	// zero value of every parameter can mean "default".
	On bool
	// RTO is the retransmission timeout in sim rounds: how long after a
	// transmission the sender waits for the ack before the next attempt.
	// Must be ≥ 3, or the layer would retransmit on a perfect network.
	RTO int
	// Backoff multiplies the timeout after every unacked attempt
	// (bounded exponential backoff). ≥ 1.
	Backoff int
	// Budget is the maximum number of retransmissions per message; when
	// attempt Budget+1 (the original plus Budget copies) goes unacked,
	// the message is declared failed and the protocol notified.
	Budget int
	// Stretch is the number of sim rounds per protocol round. 0 means
	// auto: 1 on a spread-free network, else derived from the latency
	// model's worst-case delay (capped). Must be 1 on a spread-free
	// network for byte-identity with the synchronous tables.
	Stretch int
}

// On returns the default-configured enabled layer.
func On() Config {
	return Config{On: true, RTO: DefaultRTO, Backoff: DefaultBackoff, Budget: DefaultBudget}
}

// Enabled reports whether the layer is active.
func (c Config) Enabled() bool { return c.On }

// ParseConfig parses a -reliable flag value: "" / "off" / "none"
// (disabled), "on" (the defaults), or a comma-separated key=value list, e.g.
// "rto=3,backoff=2,budget=5,stretch=16". Keys: rto (rounds ≥ 3),
// backoff (factor ≥ 1), budget (retransmissions ≥ 0), stretch
// (rounds/protocol round, 0 = auto). Any key=value form enables the
// layer; unset keys take the defaults.
func ParseConfig(s string) (Config, error) {
	var cfg Config
	s = strings.TrimSpace(s)
	if s == "" || s == "off" || s == "none" {
		return cfg, nil
	}
	cfg = On()
	if s == "on" {
		return cfg, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Config{}, fmt.Errorf("reliable: %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil {
			return Config{}, fmt.Errorf("reliable: %s: %v", key, err)
		}
		switch key {
		case "rto":
			cfg.RTO = n
		case "backoff":
			cfg.Backoff = n
		case "budget":
			cfg.Budget = n
		case "stretch":
			cfg.Stretch = n
		default:
			return Config{}, fmt.Errorf("reliable: unknown key %q (want rto, backoff, budget, or stretch)", key)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !c.On {
		return nil
	}
	if c.RTO < 3 {
		return fmt.Errorf("reliable: rto=%d must be ≥ 3 (the ack round trip takes 2 rounds)", c.RTO)
	}
	if c.Backoff < 1 {
		return fmt.Errorf("reliable: backoff=%d must be ≥ 1", c.Backoff)
	}
	if c.Budget < 0 {
		return fmt.Errorf("reliable: budget=%d is negative", c.Budget)
	}
	if c.Stretch < 0 {
		return fmt.Errorf("reliable: stretch=%d is negative", c.Stretch)
	}
	return nil
}

// String renders the config in ParseConfig's format (stable key order,
// default-valued keys omitted; "on" for the plain defaults, "none" when
// disabled).
func (c Config) String() string {
	if !c.On {
		return "none"
	}
	var parts []string
	if c.RTO != DefaultRTO {
		parts = append(parts, fmt.Sprintf("rto=%d", c.RTO))
	}
	if c.Backoff != DefaultBackoff {
		parts = append(parts, fmt.Sprintf("backoff=%d", c.Backoff))
	}
	if c.Budget != DefaultBudget {
		parts = append(parts, fmt.Sprintf("budget=%d", c.Budget))
	}
	if c.Stretch != 0 {
		parts = append(parts, fmt.Sprintf("stretch=%d", c.Stretch))
	}
	if len(parts) == 0 {
		return "on"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// EffectiveStretch resolves the phase stretch against a latency model:
// an explicit Stretch wins; 0 means 1 on a spread-free model (so
// zero-spread runs keep the synchronous cadence and its byte-identity)
// and otherwise the model's worst-case one-way delay plus the ack round
// trip, capped at maxStretch — heavy tails beyond the cap are covered
// by retransmission, not by waiting.
func (c Config) EffectiveStretch(lat sim.Latency) int {
	if c.Stretch > 0 {
		return c.Stretch
	}
	if !lat.Spread() {
		return 1
	}
	s := int(math.Ceil(lat.MaxRounds())) + 2
	if s > maxStretch {
		s = maxStretch
	}
	if s < 1 {
		s = 1
	}
	return s
}

// StretchedRounds maps a protocol round count to the sim rounds a
// stretched run needs. Simulator rounds are 1-based and the endpoint
// fires its inner handler on rounds divisible by S, so protocol round
// k (1-based) executes at sim round k·S and a protocol of `inner`
// rounds needs inner·S sim rounds. Identity at S = 1.
func StretchedRounds(inner, stretch int) int {
	if inner <= 0 {
		return 0
	}
	return inner * stretch
}

// mix64 is the splitmix64 finalizer.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// AttemptDelay returns the delay, in sim rounds, between transmission
// attempt a of a message (a = 0 is the original send) and attempt a+1 —
// RTO·Backoff^a, capped, plus a deterministic jitter of up to half the
// base drawn from splitmix64(seed, round, src, dst, attempt). round is
// the sim round of the original transmission, so the whole schedule is
// fixed the moment the message is first sent: a pure function of the
// message identity that desynchronizes retransmit storms without a
// shared RNG stream.
func AttemptDelay(cfg Config, seed uint64, round int, src, dst uint64, attempt int) int {
	base := cfg.RTO
	for i := 0; i < attempt && base < maxAttemptDelay; i++ {
		base *= cfg.Backoff
	}
	if base > maxAttemptDelay {
		base = maxAttemptDelay
	}
	h := seed ^ saltReliable
	h = mix64(h + uint64(round)*0x9e3779b97f4a7c15)
	h = mix64(h + src)
	h = mix64(h + dst)
	h = mix64(h + uint64(attempt))
	return base + int(h%uint64(base/2+1))
}

// ScheduleDeadline returns the sim round, relative to the original
// transmission, by which the whole retransmit schedule has run its
// course: the sum of every attempt's delay. After it passes unacked,
// the message is declared failed. Bounded by (Budget+1)·(3/2)·
// maxAttemptDelay, the fuzz target's budget-bound invariant.
func ScheduleDeadline(cfg Config, seed uint64, round int, src, dst uint64) int {
	d := 0
	for a := 0; a <= cfg.Budget; a++ {
		d += AttemptDelay(cfg, seed, round, src, dst, a)
	}
	return d
}
