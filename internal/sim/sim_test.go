package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// echoPair spawns two nodes that ping-pong a counter and records what
// each receives per round into the returned slices.
func TestPingPongDelivery(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var got [2][]int
	for i := 0; i < 2; i++ {
		self := NodeID(i)
		peer := NodeID(1 - i)
		idx := i
		net.Spawn(self, func(ctx *Ctx) {
			ctx.Send(peer, 100+idx, 8)
			for r := 0; r < 5; r++ {
				inbox := ctx.NextRound()
				for _, m := range inbox {
					got[idx] = append(got[idx], m.Payload.(int))
				}
				ctx.Send(peer, 100+idx, 8)
			}
		})
	}
	net.Run(6)
	net.Shutdown()
	for i := 0; i < 2; i++ {
		if len(got[i]) != 5 {
			t.Fatalf("node %d received %d messages, want 5", i, len(got[i]))
		}
		for _, v := range got[i] {
			if v != 100+(1-i) {
				t.Fatalf("node %d received %d", i, v)
			}
		}
	}
}

func TestMessagesTakeOneRound(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var recvRound atomic.Int64
	recvRound.Store(-1)
	net.Spawn(1, func(ctx *Ctx) {
		ctx.Send(2, "x", 1)
		ctx.NextRound()
	})
	net.Spawn(2, func(ctx *Ctx) {
		for {
			inbox := ctx.NextRound()
			if len(inbox) > 0 {
				recvRound.Store(int64(ctx.Round()))
				return
			}
		}
	})
	net.Run(3)
	net.Shutdown()
	if recvRound.Load() != 2 {
		t.Fatalf("message sent in round 1 delivered in round %d, want 2", recvRound.Load())
	}
}

func TestDeterministicInboxOrder(t *testing.T) {
	run := func() []uint64 {
		net := NewNetwork(Config{Seed: 7})
		var order []uint64
		for i := 2; i <= 9; i++ {
			id := NodeID(i)
			net.Spawn(id, func(ctx *Ctx) {
				// Random extra messages to shake ordering.
				k := ctx.RNG().Intn(3) + 1
				for j := 0; j < k; j++ {
					ctx.Send(1, uint64(id)*100+uint64(j), 4)
				}
				ctx.NextRound()
			})
		}
		net.Spawn(1, func(ctx *Ctx) {
			inbox := ctx.NextRound()
			for _, m := range inbox {
				order = append(order, m.Payload.(uint64))
			}
		})
		net.Run(2)
		net.Shutdown()
		return order
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("bad lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Order must be sorted by sender then sequence.
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			t.Fatalf("inbox not canonically sorted: %v", a)
		}
	}
}

func TestNodeLeavesWhenProcReturns(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.Spawn(1, func(ctx *Ctx) {
		ctx.NextRound()
	})
	net.Spawn(2, func(ctx *Ctx) {
		for i := 0; i < 5; i++ {
			ctx.NextRound()
		}
	})
	net.Step()
	net.Step()
	if net.Exists(1) {
		t.Fatal("node 1 should have left")
	}
	if !net.Exists(2) {
		t.Fatal("node 2 should still exist")
	}
	if net.NumAlive() != 1 {
		t.Fatalf("NumAlive = %d, want 1", net.NumAlive())
	}
	net.Shutdown()
}

func TestMessageToDepartedNodeDropped(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.Spawn(1, func(ctx *Ctx) {
		// leaves immediately after round 1
		ctx.NextRound()
	})
	net.Spawn(2, func(ctx *Ctx) {
		ctx.NextRound() // round 1
		ctx.NextRound() // round 2
		ctx.Send(1, "late", 1)
		ctx.NextRound() // round 3
	})
	net.Run(4) // must not panic or deadlock
	net.Shutdown()
}

func TestDuplicateSpawnPanics(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.Spawn(1, func(ctx *Ctx) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate spawn did not panic")
		}
		net.Shutdown()
	}()
	net.Spawn(1, func(ctx *Ctx) {})
}

func TestWorkAccounting(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	net.Spawn(1, func(ctx *Ctx) {
		ctx.Send(2, "a", 10)
		ctx.NextRound()
		ctx.NextRound()
	})
	net.Spawn(2, func(ctx *Ctx) {
		ctx.NextRound()
		ctx.NextRound()
	})
	net.Run(2)
	net.Shutdown()
	w := net.Work()
	if len(w) < 2 {
		t.Fatalf("work log has %d rounds", len(w))
	}
	// Round 1: node 1 sends 10 bits. Round 2: node 2 receives 10 bits.
	if w[0].TotalBits != 10 || w[0].Messages != 1 {
		t.Fatalf("round 1 work = %+v", w[0])
	}
	if w[1].TotalBits != 10 {
		t.Fatalf("round 2 work = %+v", w[1])
	}
	if w[0].MaxNodeBits != 10 || w[1].MaxNodeBits != 10 {
		t.Fatalf("max bits wrong: %+v %+v", w[0], w[1])
	}
}

func TestRNGPerNodeDeterministic(t *testing.T) {
	run := func() [2]uint64 {
		net := NewNetwork(Config{Seed: 99})
		var out [2]uint64
		for i := 0; i < 2; i++ {
			idx := i
			net.Spawn(NodeID(i+1), func(ctx *Ctx) {
				out[idx] = ctx.RNG().Uint64()
				ctx.NextRound()
			})
		}
		net.Run(1)
		net.Shutdown()
		return out
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("node RNGs not deterministic: %v vs %v", a, b)
	}
	if a[0] == a[1] {
		t.Fatal("different nodes share an RNG stream")
	}
}

func TestSpawnMidRun(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	var recv atomic.Int64
	net.Spawn(1, func(ctx *Ctx) {
		for i := 0; i < 6; i++ {
			inbox := ctx.NextRound()
			recv.Add(int64(len(inbox)))
		}
	})
	net.Step()
	net.Spawn(2, func(ctx *Ctx) {
		ctx.Send(1, "hello", 1)
		ctx.NextRound()
	})
	net.Run(3)
	net.Shutdown()
	if recv.Load() != 1 {
		t.Fatalf("node 1 received %d messages from late joiner, want 1", recv.Load())
	}
}

// TestWorkLogByteIdentityAcrossShards pins the ignored Config.Shards
// field (kept only while bench/ still sets it): a network built with
// Shards: 4 under OVERLAYNET_SHARDS=4 starts no goroutine and produces
// the same work log and tracer view as the default, traced or not.
func TestWorkLogByteIdentityAcrossShards(t *testing.T) {
	t.Setenv("OVERLAYNET_SHARDS", "4")
	before := runtime.NumGoroutine()
	net := NewNetwork(Config{Seed: 1, Shards: 4})
	for i := 0; i < 64; i++ {
		net.SpawnHandler(NodeID(i+1), HandlerFunc(func(ctx *Ctx, _ []Message) bool {
			ctx.Send(NodeID(ctx.RNG().Intn(64)+1), nil, 8)
			return true
		}))
	}
	net.Run(3)
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("stepping a Shards: 4 network took the goroutine count from %d to %d", before, got)
	}
	net.Shutdown()

	for _, traced := range []bool{false, true} {
		baseWork, baseTr := churnScenario(Config{Seed: 42}, traced, true)
		work, tr := churnScenario(Config{Seed: 42, Shards: 4}, traced, true)
		sameRun(t, fmt.Sprintf("Shards 4 vs default, traced=%v", traced), baseWork, work, baseTr, tr)
	}
}

func TestIDBits(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 3, 4: 3, 1024: 11, 1 << 16: 17}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Fatalf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestManyNodesBarrier(t *testing.T) {
	// Smoke test that thousands of goroutine nodes synchronize cleanly.
	const n = 2000
	net := NewNetwork(Config{Seed: 5})
	var total atomic.Int64
	for i := 0; i < n; i++ {
		id := NodeID(i + 1)
		net.Spawn(id, func(ctx *Ctx) {
			next := NodeID(uint64(id)%n + 1)
			for r := 0; r < 3; r++ {
				ctx.Send(next, 1, 1)
				inbox := ctx.NextRound()
				total.Add(int64(len(inbox)))
			}
		})
	}
	net.Run(4)
	net.Shutdown()
	// Each of n nodes receives one message in rounds 2..4 except the
	// final round's sends (delivered after the procs stopped reading).
	want := int64(n * 2)
	if total.Load() < want {
		t.Fatalf("total deliveries %d < %d", total.Load(), want)
	}
}

func BenchmarkBarrier1kNodes(b *testing.B) {
	net := NewNetwork(Config{Seed: 1})
	const n = 1000
	for i := 0; i < n; i++ {
		net.Spawn(NodeID(i+1), func(ctx *Ctx) {
			for {
				ctx.NextRound()
			}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
	b.StopTimer()
	net.Shutdown()
}
