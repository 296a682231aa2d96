// Package fault is the deterministic fault-injection layer: seed-derived
// message drop/duplication applied between send and deliver, and
// crash-restart schedules for nodes (a crashed node loses its volatile
// state and must rejoin through the paper's §4 join protocol, or is
// treated as unresponsive for a configurable number of epochs in the
// centrally simulated networks).
//
// Every decision is a pure hash of (seed, message or node identity) —
// never a sequential RNG stream — so outcomes are byte-reproducible for
// any worker or shard count: the same message is dropped, the same node
// crashes, no matter how the simulation is scheduled. See sim.Injector
// for why purity is load-bearing.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Spec configures the fault model. The zero value injects nothing.
type Spec struct {
	// Seed derives every fault decision. Drivers should derive it from
	// the per-cell experiment seed (exp.cellSeed) so fault schedules are
	// independent of -procs/OVERLAYNET_SHARDS.
	Seed uint64
	// Drop is the per-message probability of being lost in transit.
	Drop float64
	// Dup is the per-message probability of being delivered twice.
	Dup float64
	// Crash is the per-node, per-epoch probability of crashing: the node
	// loses its volatile state and is gone (or unresponsive) for Restart
	// epochs, then rejoins.
	Crash float64
	// Restart is how many epochs a crashed node stays down before it
	// rejoins; 0 means the default of 1.
	Restart int
	// PartK splits the identity space into this many components while a
	// partition window is open; every cross-component message is silently
	// dropped. Must be >= 2 when PartWin > 0.
	PartK int
	// PartFrom is the first round of the partition window.
	PartFrom int
	// PartWin is the partition window length in rounds; 0 disables the
	// partition fault entirely.
	PartWin int
	// Corrupt is the per-epoch probability of a state-corruption event:
	// the driver asks the network's Corrupter to perturb live protocol
	// state with a hash-derived selector.
	Corrupt float64
}

// Corrupter is implemented per network: CorruptState deterministically
// perturbs live protocol state (successor pointers, replicated group
// membership, a split-merge group's dimension) selected by pick, and
// returns a short description of what it broke, or "" if the network had
// nothing corruptible. The perturbation must depend only on pick and the
// network's current deterministic state so recovery experiments stay
// byte-reproducible.
type Corrupter interface {
	CorruptState(pick uint64) string
}

// ParseSpec parses a comma-separated key=value list, e.g.
// "drop=0.01,dup=0.001,crash=0.05,restart=2" or
// "partk=2,partfrom=10,partwin=40,corrupt=0.5". Keys: drop, dup, crash,
// corrupt (probabilities in [0,1]), restart (epochs, >= 1), partk
// (components, >= 2), partfrom/partwin (rounds), seed (uint64). Each key
// may appear once, and a key that would change nothing is an error:
// restart without crash, partk or partfrom without partwin, seed without
// any fault. The empty string and "none" parse to the zero Spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return spec, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return spec, fmt.Errorf("fault: %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return spec, fmt.Errorf("fault: %s given twice", key)
		}
		seen[key] = true
		switch key {
		case "drop", "dup", "crash", "corrupt":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: %s: %v", key, err)
			}
			switch key {
			case "drop":
				spec.Drop = f
			case "dup":
				spec.Dup = f
			case "crash":
				spec.Crash = f
			case "corrupt":
				spec.Corrupt = f
			}
		case "restart", "partk", "partfrom", "partwin":
			n, err := strconv.Atoi(val)
			if err != nil {
				return spec, fmt.Errorf("fault: %s: %v", key, err)
			}
			switch key {
			case "restart":
				if n == 1 {
					n = 0 // the default, which String omits
				}
				spec.Restart = n
			case "partk":
				spec.PartK = n
			case "partfrom":
				spec.PartFrom = n
			case "partwin":
				spec.PartWin = n
			}
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: seed: %v", err)
			}
			spec.Seed = n
		default:
			return spec, fmt.Errorf("fault: unknown key %q (want drop, dup, crash, corrupt, restart, partk, partfrom, partwin, or seed)", key)
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	for _, k := range []struct {
		key   string
		inert bool
		needs string
	}{
		{"restart", spec.Crash == 0, "crash"},
		{"partk", spec.PartWin == 0, "partwin"},
		{"partfrom", spec.PartWin == 0, "partwin"},
		{"seed", !spec.Active(), "a fault"},
	} {
		if seen[k.key] && k.inert {
			return spec, fmt.Errorf("fault: %s has no effect without %s", k.key, k.needs)
		}
	}
	return spec, nil
}

// Validate reports whether the spec's rates are usable.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"dup", s.Dup}, {"crash", s.Crash}, {"corrupt", s.Corrupt}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN too
			return fmt.Errorf("fault: %s=%g outside [0,1]", p.name, p.v)
		}
	}
	if s.Drop+s.Dup > 1 {
		return fmt.Errorf("fault: drop+dup=%g exceeds 1", s.Drop+s.Dup)
	}
	if s.Restart < 0 {
		return fmt.Errorf("fault: restart=%d is negative", s.Restart)
	}
	if s.PartWin < 0 {
		return fmt.Errorf("fault: partwin=%d is negative", s.PartWin)
	}
	if s.PartFrom < 0 {
		return fmt.Errorf("fault: partfrom=%d is negative", s.PartFrom)
	}
	if s.PartWin > 0 && s.PartK < 2 {
		return fmt.Errorf("fault: partwin=%d needs partk >= 2 (got %d)", s.PartWin, s.PartK)
	}
	return nil
}

// Active reports whether the spec injects any fault at all.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Crash > 0 || s.PartWin > 0 || s.Corrupt > 0
}

// WithSeed returns a copy with the seed replaced; drivers use it to bind
// a shared command-line spec to each sweep cell's deterministic seed.
func (s Spec) WithSeed(seed uint64) Spec {
	s.Seed = seed
	return s
}

// String renders the spec in ParseSpec's format (stable key order,
// zero-valued keys omitted; "none" for a spec that injects nothing), so
// ParseSpec(s.String()) == s for every spec ParseSpec returns.
func (s Spec) String() string {
	var parts []string
	if s.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.Drop))
	}
	if s.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", s.Dup))
	}
	if s.Crash > 0 {
		parts = append(parts, fmt.Sprintf("crash=%g", s.Crash))
		if s.Restart > 1 {
			parts = append(parts, fmt.Sprintf("restart=%d", s.Restart))
		}
	}
	if s.PartWin > 0 {
		parts = append(parts, fmt.Sprintf("partk=%d", s.PartK))
		if s.PartFrom > 0 {
			parts = append(parts, fmt.Sprintf("partfrom=%d", s.PartFrom))
		}
		parts = append(parts, fmt.Sprintf("partwin=%d", s.PartWin))
	}
	if s.Corrupt > 0 {
		parts = append(parts, fmt.Sprintf("corrupt=%g", s.Corrupt))
	}
	if len(parts) == 0 {
		return "none"
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// RestartEpochs returns how long a crashed node stays down (>= 1).
func (s Spec) RestartEpochs() int {
	if s.Restart < 1 {
		return 1
	}
	return s.Restart
}

// Injector returns the message-level injector for this spec, or nil if
// neither drop/dup nor a partition window is enabled — callers pass the
// result straight to sim.Network.SetInjector, and nil keeps the kernel
// on its fast path.
func (s Spec) Injector() *Injector {
	if s.Drop == 0 && s.Dup == 0 && s.PartWin == 0 {
		return nil
	}
	return &Injector{seed: s.Seed, drop: s.Drop, dup: s.Dup,
		partK: s.PartK, partFrom: s.PartFrom, partWin: s.PartWin}
}

// Distinct salts keep the message-fate, crash-schedule, partition
// component, and corruption hash streams independent of each other (and
// of exp.cellSeed's mixing constants).
const (
	saltMessage   = 0xd6e8feb86659fd93
	saltCrash     = 0xa0761d6478bd642f
	saltPartition = 0x8bb84b93962eacc9
	saltCorrupt   = 0x2d358dccaa6c78a5
)

// Injector decides the fate of individual messages. It implements
// sim.Injector; the centrally simulated networks (supernode,
// splitmerge) call CopiesAt with queue indices instead of send
// sequences.
type Injector struct {
	seed      uint64
	drop, dup float64
	partK     int
	partFrom  int
	partWin   int
}

// copies maps one hashed decision to a delivery count: the unit interval
// is split into [0,drop) -> lost, [1-dup,1) -> duplicated, else normal.
func (in *Injector) copies(h uint64) int {
	u := rng.Unit(h)
	switch {
	case u < in.drop:
		return 0
	case u >= 1-in.dup:
		return 2
	default:
		return 1
	}
}

// Deliveries implements sim.Injector: a pure function of the message
// identity (round, sender, receiver, per-sender send sequence). While a
// partition window is open, every cross-component message is lost
// before the drop/dup hash is even consulted.
func (in *Injector) Deliveries(round int, from, to sim.NodeID, seq uint64) int {
	if in.partWin > 0 && round >= in.partFrom && round < in.partFrom+in.partWin &&
		partComponent(in.seed, uint64(from), in.partK) != partComponent(in.seed, uint64(to), in.partK) {
		return 0
	}
	if in.drop == 0 && in.dup == 0 {
		return 1
	}
	h := in.seed ^ saltMessage
	h = rng.Mix64(h + uint64(round)*0x9e3779b97f4a7c15)
	h = rng.Mix64(h + uint64(from))
	h = rng.Mix64(h + uint64(to))
	h = rng.Mix64(h + seq)
	return in.copies(h)
}

// CopiesAt is Deliveries for centrally simulated message queues, where
// the (round, from, to, index-in-queue) tuple identifies a message the
// same way a send sequence does.
func (in *Injector) CopiesAt(round int, from, to uint64, index int) int {
	return in.Deliveries(round, sim.NodeID(from), sim.NodeID(to), uint64(index))
}

// Crashes reports whether node id crashes at the start of the given
// epoch — a pure hash, so the schedule is identical no matter which
// worker evaluates it or in what order.
func (s Spec) Crashes(epoch int, id uint64) bool {
	if s.Crash == 0 {
		return false
	}
	h := s.Seed ^ saltCrash
	h = rng.Mix64(h + uint64(epoch)*0x9e3779b97f4a7c15)
	h = rng.Mix64(h + id)
	return rng.Unit(h) < s.Crash
}

// partComponent is the shared component hash behind Spec.Component and
// Injector.Deliveries: a pure function of (seed, id) so every worker —
// and the audit checker looking at the same round — agrees on the cut.
func partComponent(seed, id uint64, k int) int {
	return int(rng.Mix64(seed^saltPartition+id) % uint64(k))
}

// Partitioned reports whether the partition window is open at round.
func (s Spec) Partitioned(round int) bool {
	return s.PartWin > 0 && round >= s.PartFrom && round < s.PartFrom+s.PartWin
}

// Components returns how many partition components the identities fall
// into at round: PartK while the window is open, otherwise (and for a
// PartK that cuts nothing) 1. Component's values lie below it.
func (s Spec) Components(round int) int {
	if s.Partitioned(round) && s.PartK > 1 {
		return s.PartK
	}
	return 1
}

// Component returns which of the PartK partition components identity id
// belongs to (0 when the partition fault is disabled).
func (s Spec) Component(id uint64) int {
	if s.PartK < 2 {
		return 0
	}
	return partComponent(s.Seed, id, s.PartK)
}

// CutsEdge reports whether the partition severs the (a, b) edge at
// round: the window is open and the endpoints hash to different
// components. Symmetric in a and b, false whenever the partition fault
// is disabled — networks call this one helper everywhere a link-level
// cut matters (broadcast gates, knowledge-graph connectivity).
func (s Spec) CutsEdge(round int, a, b uint64) bool {
	return s.Partitioned(round) && s.Component(a) != s.Component(b)
}

// CorruptsAt reports whether a state-corruption event fires at the
// start of the given epoch.
func (s Spec) CorruptsAt(epoch int) bool {
	if s.Corrupt == 0 {
		return false
	}
	h := s.Seed ^ saltCorrupt
	h = rng.Mix64(h + uint64(epoch)*0x9e3779b97f4a7c15)
	return rng.Unit(h) < s.Corrupt
}

// CorruptPick derives the selector handed to Corrupter.CorruptState for
// the given epoch's corruption event — an independent hash stream from
// CorruptsAt so the victim choice is not correlated with the firing
// decision.
func (s Spec) CorruptPick(epoch int) uint64 {
	h := s.Seed ^ saltCorrupt
	h = rng.Mix64(h + uint64(epoch)*0x9e3779b97f4a7c15)
	return rng.Mix64(h + 0x632be59bd9b4e019)
}
