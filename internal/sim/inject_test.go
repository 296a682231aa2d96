// The injector tests live in an external test package because they
// drive the kernel with the real internal/fault injector, and fault
// imports sim.
package sim_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"overlaynet/internal/fault"
	. "overlaynet/internal/sim"
)

// faultTracer keeps every round's stats, without the samples (the
// kernel's scratch), and sums the drops and duplicated extras.
type faultTracer struct {
	stats    []RoundStats
	drops    [NumDropReasons]int
	dupExtra int
}

func (t *faultTracer) RoundStart(round, alive int) {}
func (t *faultTracer) RoundEnd(stats RoundStats) {
	for r, d := range stats.Dropped {
		t.drops[r] += d
	}
	t.dupExtra += stats.DupExtra
	stats.Inbox, stats.Bits = nil, nil
	t.stats = append(t.stats, stats)
}
func (t *faultTracer) NodeSpawned(round int, id NodeID) {}

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
	if tr.dupExtra == 0 {
		t.Fatal("workload too small: no duplications injected")
	}
	for i := 1; i < len(tr.stats); i++ {
		prev := tr.stats[i-1]
		if prev.Work != work[i-1] {
			t.Fatalf("round %d: traced work %+v, log %+v", prev.Round, prev.Work, work[i-1])
		}
		dropped := prev.Dropped[DropDeadReceiver] + prev.Dropped[DropFaultInjected]
		want := int64(prev.Work.Messages - dropped + prev.DupExtra)
		if got := tr.stats[i].Delivered; got != want {
			t.Fatalf("round %d: delivered %d, ledger expects %d (sent %d, dropped %d, dup extra %d)",
				tr.stats[i].Round, got, want, prev.Work.Messages, dropped, prev.DupExtra)
		}
	}
}

// TestInjectorShardInvariance pins the ignored Config.Shards field under
// injection (see TestWorkLogByteIdentityAcrossShards): the work log
// and every round's stats, drop and duplication counts included, at
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
	if !reflect.DeepEqual(tr.stats, baseTr.stats) {
		t.Fatal("round stats differ at Shards: 8")
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
	if injTr.drops != ([NumDropReasons]int{}) || injTr.dupExtra != 0 {
		t.Fatalf("pass-through injector dropped %v and duplicated %d", injTr.drops, injTr.dupExtra)
	}
	if !reflect.DeepEqual(detTr.stats, injTr.stats) {
		t.Fatal("round stats differ with pass-through injector attached")
	}
}

// TestInjectorMultiCopies: an injector returning c > 2 delivers c
// consecutive copies and reports the c-1 extras to the tracer.
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
	if tr.dupExtra != 2 || tr.stats[0].DupExtra != 2 {
		t.Fatalf("duplicated extras = %d (round 1: %d), want 2 in round 1", tr.dupExtra, tr.stats[0].DupExtra)
	}
}

type fixedCopies int

func (c fixedCopies) Deliveries(round int, from, to NodeID, seq uint64) int { return int(c) }
