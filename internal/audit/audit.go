// Package audit is the runtime invariant layer: a pluggable engine that
// runs registered checkers against live topology and protocol state
// every k rounds, and turns failures into structured Violation reports.
// The paper's guarantees — connectivity under churn (Thm 4/5), group
// sizes inside Equation (1) and dimension spread <= 2 (Lemmas 16–18),
// valid Hamilton-cycle structure after every reconfiguration (§2.2/§4),
// sampling budget conservation — become continuously checked assertions
// instead of per-experiment spot checks.
//
// The engine follows the same zero-cost observer discipline as
// sim.Tracer: all methods are nil-receiver safe, so drivers hold a
// possibly-nil *Engine and call it unconditionally; a detached engine
// costs one nil check. Violations flow to a Reporter (internal/trace's
// Recorder implements it) so they land in JSONL streams and
// cmd/tracestats.
package audit

import (
	"fmt"
	"sort"
)

// Violation is one invariant failure, with enough context to replay it:
// the failing invariant, where and when it fired, and the offending
// nodes if the checker can name them.
type Violation struct {
	Invariant string   `json:"invariant"`
	Scope     string   `json:"scope,omitempty"`
	Seed      uint64   `json:"seed"`
	Round     int      `json:"round"`
	Epoch     int      `json:"epoch,omitempty"`
	Nodes     []uint64 `json:"nodes,omitempty"`
	Detail    string   `json:"detail,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: round %d", v.Invariant, v.Round)
	if v.Scope != "" {
		s = v.Scope + ": " + s
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// Reporter receives violations as they are detected. Implementations
// must be safe for concurrent use when shared across sweep cells
// (trace.Recorder is).
type Reporter interface {
	ReportViolation(v Violation)
}

// Checker inspects live state and returns any violations it finds (nil
// or empty means the invariant holds). The engine fills in Scope, Seed,
// Round, and Epoch on whatever the checker returns, so checkers only
// describe the failure itself.
type Checker func() []Violation

// maxRetained bounds the engine's in-memory violation list; the total
// count keeps incrementing past it (a broken invariant typically fires
// every check, and retaining millions of identical reports helps no
// one).
const maxRetained = 1024

// Engine runs registered checkers every k-th Tick. It is driven from a
// single goroutine (the network driver between rounds); only the
// Reporter needs to tolerate concurrency.
type Engine struct {
	scope string
	seed  uint64
	every int
	rep   Reporter

	names  []string
	checks []Checker

	epoch      int
	ticks      int
	count      int
	violations []Violation
	byName     map[string]int

	// Recovery tracking (recovery.go): invariant -> round of the first
	// violation of the currently open break episode, plus the closed
	// episodes in completion order.
	brokenAt   map[string]int
	recoveries []Recovery
}

// NewEngine returns an engine that runs its checkers on every k-th Tick
// (k <= 0 means every tick), labeling violations with scope and seed and
// forwarding them to rep (which may be nil to only collect).
func NewEngine(scope string, seed uint64, every int, rep Reporter) *Engine {
	if every < 1 {
		every = 1
	}
	return &Engine{scope: scope, seed: seed, every: every, rep: rep,
		byName: map[string]int{}, brokenAt: map[string]int{}}
}

// Register adds a named checker. Registration order is the check order.
func (e *Engine) Register(name string, c Checker) {
	if e == nil {
		return
	}
	e.names = append(e.names, name)
	e.checks = append(e.checks, c)
	if _, ok := e.byName[name]; !ok {
		e.byName[name] = 0
	}
}

// SetEpoch records the reconfiguration epoch stamped onto subsequent
// violations.
func (e *Engine) SetEpoch(epoch int) {
	if e == nil {
		return
	}
	e.epoch = epoch
}

// Tick advances the audit clock; every e.every-th call runs all
// checkers against the given round. Drivers call it wherever their
// protocol state is consistent (per simulation round for the centrally
// simulated networks, per reconfiguration epoch for the core network).
func (e *Engine) Tick(round int) {
	if e == nil {
		return
	}
	e.ticks++
	if e.ticks%e.every == 0 {
		e.RunNow(round)
	}
}

// RunNow runs all checkers immediately, regardless of cadence, and
// feeds the pass's verdict to the recovery tracker: invariants that
// stayed quiet while a break episode was open are now clean, closing
// the episode at this round.
func (e *Engine) RunNow(round int) {
	if e == nil {
		return
	}
	violated := map[string]bool{}
	for i, check := range e.checks {
		for _, v := range check() {
			if v.Invariant == "" {
				v.Invariant = e.names[i]
			}
			v.Round = round
			violated[v.Invariant] = true
			e.Report(v)
		}
	}
	e.observeRun(round, violated)
}

// Report records one violation (stamping scope/seed/epoch defaults) and
// forwards it to the reporter. It is also the path for failures
// detected outside checkers, e.g. the work-conservation ledger or a
// recovered invariant panic.
func (e *Engine) Report(v Violation) {
	if e == nil {
		return
	}
	if v.Scope == "" {
		v.Scope = e.scope
	}
	if v.Seed == 0 {
		v.Seed = e.seed
	}
	if v.Epoch == 0 {
		v.Epoch = e.epoch
	}
	e.count++
	e.byName[v.Invariant]++
	if _, open := e.brokenAt[v.Invariant]; !open {
		e.brokenAt[v.Invariant] = v.Round
	}
	if len(e.violations) < maxRetained {
		e.violations = append(e.violations, v)
	}
	if e.rep != nil {
		e.rep.ReportViolation(v)
	}
}

// ReportViolation implements Reporter, so an Engine can sit behind a
// WorkAuditor or another engine.
func (e *Engine) ReportViolation(v Violation) { e.Report(v) }

// Count returns the total number of violations observed (including any
// past the retention cap).
func (e *Engine) Count() int {
	if e == nil {
		return 0
	}
	return e.count
}

// CountFor returns the violation count for one invariant name.
func (e *Engine) CountFor(invariant string) int {
	if e == nil {
		return 0
	}
	return e.byName[invariant]
}

// Passed reports whether the named invariant has never fired. Unknown
// names report true (never registered, never violated).
func (e *Engine) Passed(invariant string) bool { return e.CountFor(invariant) == 0 }

// Violations returns a copy of the retained violations.
func (e *Engine) Violations() []Violation {
	if e == nil {
		return nil
	}
	return append([]Violation(nil), e.violations...)
}

// Invariants returns the registered checker names plus any invariant
// names reported from outside checkers, sorted.
func (e *Engine) Invariants() []string {
	if e == nil {
		return nil
	}
	names := make([]string, 0, len(e.byName))
	for n := range e.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
