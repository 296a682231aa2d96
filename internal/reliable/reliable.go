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
	"strings"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// rto, the retransmission timeout in sim rounds, is fixed at 3: the
// smallest timeout that stays silent on a perfect network, since an
// envelope sent at round r is delivered at r+1 and its ack at r+2, one
// round before the first retransmit would fire. The Default values are
// On()'s.
const (
	rto            = 3
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
	return Config{On: true, Backoff: DefaultBackoff, Budget: DefaultBudget}
}

// Enabled reports whether the layer is active.
func (c Config) Enabled() bool { return c.On }

// ParseConfig parses a -reliable flag value: "" / "off" / "none"
// (disabled) or "on" (the defaults). Only AS2 tunes the other fields,
// in code.
func ParseConfig(s string) (Config, error) {
	switch strings.TrimSpace(s) {
	case "", "off", "none":
		return Config{}, nil
	case "on":
		return On(), nil
	}
	return Config{}, fmt.Errorf("reliable: %q is not on, off or none", s)
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if !c.On {
		return nil
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

// String renders the config as the ParseConfig value that selects it:
// "none" when disabled, else "on".
func (c Config) String() string {
	if !c.On {
		return "none"
	}
	return "on"
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

// AttemptDelay returns the delay, in sim rounds, between transmission
// attempt a of a message (a = 0 is the original send) and attempt a+1 —
// rto·Backoff^a, capped, plus a deterministic jitter of up to half the
// base drawn from splitmix64(seed, round, src, dst, attempt). round is
// the sim round of the original transmission, so the whole schedule is
// fixed the moment the message is first sent: a pure function of the
// message identity that desynchronizes retransmit storms without a
// shared RNG stream.
func AttemptDelay(cfg Config, seed uint64, round int, src, dst uint64, attempt int) int {
	base := rto
	for i := 0; i < attempt && base < maxAttemptDelay; i++ {
		base *= cfg.Backoff
	}
	if base > maxAttemptDelay {
		base = maxAttemptDelay
	}
	h := seed ^ saltReliable
	h = rng.Mix64(h + uint64(round)*0x9e3779b97f4a7c15)
	h = rng.Mix64(h + src)
	h = rng.Mix64(h + dst)
	h = rng.Mix64(h + uint64(attempt))
	return base + int(h%uint64(base/2+1))
}
