// The injector tests live in an external test package because they
// drive the kernel with the real internal/fault injector, and fault
// imports sim.
package sim_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"overlaynet/internal/fault"
	. "overlaynet/internal/sim"
)

// faultEvent is one injected-fault observation in tracer call order,
// used to compare the exact event sequence of two runs.
type faultEvent struct {
	Kind     string // "drop" or "dup"
	Round    int
	From, To NodeID
	Copies   int
}

// faultTracer records round stats plus the ordered fault event stream.
type faultTracer struct {
	stats  []RoundStats
	drops  [NumDropReasons]int
	events []faultEvent
}

func (t *faultTracer) RoundStart(round, alive int)      {}
func (t *faultTracer) RoundEnd(stats RoundStats)        { t.stats = append(t.stats, stats) }
func (t *faultTracer) NodeSpawned(round int, id NodeID) {}
func (t *faultTracer) MessageDropped(round int, reason DropReason, from, to NodeID, bits int) {
	t.drops[reason]++
	if reason == DropFaultInjected {
		t.events = append(t.events, faultEvent{"drop", round, from, to, 0})
	}
}
func (t *faultTracer) MessageDuplicated(round int, from, to NodeID, bits, copies int) {
	t.events = append(t.events, faultEvent{"dup", round, from, to, copies})
}
func (t *faultTracer) RoundDeferred(round, deferred int)                       {}
func (t *faultTracer) RoundReliability(round int, stats ReliabilityRoundStats) {}
func (t *faultTracer) RoundSamples(round int, inbox, bits []int64)             {}

// injectScenario runs a fan-out workload (every node alive, so the
// message ledger is exact) with the given injector.
func injectScenario(inj Injector, shards int) ([]RoundWork, *faultTracer) {
	net := NewNetwork(Config{Seed: 42, Shards: shards})
	tr := &faultTracer{}
	net.SetTracer(tr)
	if inj != nil {
		net.SetInjector(inj)
	}
	const n = 48
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		net.Spawn(id, func(ctx *Ctx) {
			for {
				k := int(ctx.RNG().Intn(4)) + 1
				for j := 0; j < k; j++ {
					ctx.Send(NodeID((int(id)+j*13)%n+1), j, 24)
				}
				ctx.NextRound()
			}
		})
	}
	net.Run(12)
	net.Shutdown()
	return net.Work(), tr
}

// TestInjectorLedgerExact reconciles the injected faults against the
// work log round by round: with no churn, round r's
// deliveries must equal round r-1's sends, minus its injected drops,
// plus its duplicated extra copies.
func TestInjectorLedgerExact(t *testing.T) {
	spec := fault.Spec{Seed: 3, Drop: 0.1, Dup: 0.05}
	work, tr := injectScenario(spec.Injector(), 0)
	if tr.drops[DropFaultInjected] == 0 {
		t.Fatal("workload too small: no drops injected")
	}
	dropsIn := make(map[int]int64)
	dupExtraIn := make(map[int]int64)
	dupSeen := false
	for _, ev := range tr.events {
		switch ev.Kind {
		case "drop":
			dropsIn[ev.Round]++
		case "dup":
			dupSeen = true
			dupExtraIn[ev.Round] += int64(ev.Copies - 1)
		}
	}
	if !dupSeen {
		t.Fatal("workload too small: no duplications injected")
	}
	for i := 1; i < len(tr.stats); i++ {
		prev := work[i-1]
		want := int64(prev.Messages) - dropsIn[prev.Round] + dupExtraIn[prev.Round]
		if got := tr.stats[i].Delivered; got != want {
			t.Fatalf("round %d: delivered %d, ledger expects %d (sent %d, dropped %d, dup extra %d)",
				tr.stats[i].Round, got, want, prev.Messages, dropsIn[prev.Round], dupExtraIn[prev.Round])
		}
	}
}

// TestInjectorShardInvariance pins the ignored Config.Shards field under
// injection (see TestWorkLogByteIdentityAcrossShards): the work log,
// the round stats, and the exact ordered fault event sequence at
// Shards: 8 equal the default's.
func TestInjectorShardInvariance(t *testing.T) {
	spec := fault.Spec{Seed: 3, Drop: 0.1, Dup: 0.05}
	baseWork, baseTr := injectScenario(spec.Injector(), 0)
	work, tr := injectScenario(spec.Injector(), 8)
	a, _ := json.Marshal(baseWork)
	b, _ := json.Marshal(work)
	if !bytes.Equal(a, b) {
		t.Fatal("Work() log differs at Shards: 8 under injection")
	}
	if tr.drops != baseTr.drops || !slices.Equal(tr.events, baseTr.events) || !slices.Equal(tr.stats, baseTr.stats) {
		t.Fatal("drop counters, fault events or round stats differ at Shards: 8")
	}
}

// passThroughInjector delivers everything exactly once; attaching it
// must be observationally identical to no injector at all.
type passThroughInjector struct{}

func (passThroughInjector) Deliveries(round int, from, to NodeID, seq uint64) int { return 1 }

func TestInjectorPassThroughMatchesDetached(t *testing.T) {
	detWork, detTr := injectScenario(nil, 0)
	injWork, injTr := injectScenario(passThroughInjector{}, 0)
	a, err := json.Marshal(detWork)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(injWork)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("pass-through injector changed the work log")
	}
	if len(injTr.events) != 0 {
		t.Fatalf("pass-through injector produced %d fault events", len(injTr.events))
	}
	for i := range detTr.stats {
		if detTr.stats[i] != injTr.stats[i] {
			t.Fatalf("round %d stats differ with pass-through injector attached", i+1)
		}
	}
}

// TestInjectorMultiCopies: an injector returning c > 2 delivers c
// consecutive copies and reports the count to the tracer.
func TestInjectorMultiCopies(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	tr := &faultTracer{}
	net.SetTracer(tr)
	net.SetInjector(fixedCopies(3))
	var got int
	net.Spawn(1, func(ctx *Ctx) {
		ctx.Send(2, "m", 8)
		ctx.NextRound()
	})
	net.Spawn(2, func(ctx *Ctx) {
		got = len(ctx.NextRound())
	})
	net.Run(3)
	net.Shutdown()
	if got != 3 {
		t.Fatalf("receiver got %d copies, want 3", got)
	}
	if len(tr.events) != 1 || tr.events[0].Kind != "dup" || tr.events[0].Copies != 3 {
		t.Fatalf("fault events = %+v, want one dup with copies=3", tr.events)
	}
}

type fixedCopies int

func (c fixedCopies) Deliveries(round int, from, to NodeID, seq uint64) int { return int(c) }
