package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// indexScenario runs a flood under churn and blocking whose every
// decision is a function of node *indices* v, with idOf naming the
// nodes: targets include live, departed and not-yet-spawned indices.
// It returns the delivery transcript with ids mapped back to indices
// (so two namings can be compared) and the network, shut down.
func indexScenario(idOf func(v int) NodeID) ([]string, *Network) {
	net := NewNetwork(Config{Seed: 11})
	vOf := map[NodeID]int{} // grows between rounds only; nodes read it
	var lines [][]string    // one transcript line per node per round, by index
	next := 0
	spawn := func() {
		v := next
		next++
		vOf[idOf(v)] = v
		lines = append(lines, nil)
		net.SpawnHandler(idOf(v), HandlerFunc(func(ctx *Ctx, inbox []Message) bool {
			r := ctx.Round()
			line := fmt.Sprintf("r%d v%d:", r, v)
			for _, m := range inbox {
				line += fmt.Sprintf(" %d/%d/%v", vOf[m.From], m.Bits, m.Payload)
			}
			lines[v] = append(lines[v], line)
			for j := 0; j < 3; j++ {
				ctx.Send(idOf((v*7+r*3+j*5)%(next+2)), r*10+j, 8+j)
			}
			return v%11 != 5 || r < 9 // a few leave on their own
		}))
	}
	for i := 0; i < 48; i++ {
		spawn()
	}
	for r := 1; r <= 40; r++ {
		if r%4 == 0 {
			for k := 0; k < 3; k++ {
				net.Kill(idOf((r*5 + k*13) % next))
				spawn()
			}
		}
		net.SetBlocked(map[NodeID]bool{idOf(r % next): true, idOf((r * 3) % next): true, idOf(next + 1): true})
		net.Step()
	}
	var out []string
	for _, l := range lines {
		out = append(out, l...)
	}
	net.Shutdown()
	return out, net
}

// TestIDResolutionPathsAgree runs the same scenario with ids the dense
// table holds (v+1), ids only the overflow map can hold, and a mix of
// both in one network: transcripts (modulo the renaming) and work logs
// must be identical.
func TestIDResolutionPathsAgree(t *testing.T) {
	dense := func(v int) NodeID { return NodeID(v + 1) }
	sparse := func(v int) NodeID { return 1<<40 + 977*NodeID(v) }
	mixed := func(v int) NodeID {
		if v%2 == 0 {
			return dense(v)
		}
		return sparse(v)
	}
	want, ref := indexScenario(dense)
	if len(ref.sparse) != 0 {
		t.Fatalf("ids v+1 put %d entries in the overflow map", len(ref.sparse))
	}
	if len(want) < 40*40 {
		t.Fatalf("transcript has only %d lines", len(want))
	}
	for name, idOf := range map[string]func(int) NodeID{"dense": dense, "sparse": sparse, "mixed": mixed} {
		got, net := indexScenario(idOf)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s ids: transcript differs from the dense run", name)
		}
		if !reflect.DeepEqual(net.Work(), ref.Work()) {
			t.Errorf("%s ids: work log differs from the dense run", name)
		}
		if name == "sparse" && len(net.dense) != 0 {
			t.Errorf("sparse ids grew the dense table to %d entries", len(net.dense))
		}
		if net.indexed() != 0 {
			t.Errorf("%s ids: %d index entries left after shutdown", name, net.indexed())
		}
	}
}

// TestDenseTableDoesNotDecay is the long-§4-run shape: a monotone id
// counter with n/8 of n=64 nodes replaced per epoch. The table's bound
// follows ids ever spawned, so 200 epochs in, with ids 25× the live
// count, nothing has spilled onto the map — and the table stays O(ids
// spawned).
func TestDenseTableDoesNotDecay(t *testing.T) {
	net := NewNetwork(Config{Seed: 1})
	idle := HandlerFunc(func(*Ctx, []Message) bool { return true })
	next := NodeID(1)
	for ; next <= 64; next++ {
		net.SpawnHandler(next, idle)
	}
	for epoch := 0; epoch < 200; epoch++ {
		for _, id := range net.Alive()[:8] {
			net.Kill(id)
		}
		net.Step()
		for k := 0; k < 8; k++ {
			net.SpawnHandler(next, idle)
			next++
		}
		if len(net.sparse) != 0 {
			t.Fatalf("epoch %d: id %d went to the overflow map", epoch, next-1)
		}
	}
	if net.NumAlive() != 64 || net.indexed() != 64 {
		t.Fatalf("alive=%d indexed=%d, want 64/64", net.NumAlive(), net.indexed())
	}
	if len(net.dense) != int(next) {
		t.Fatalf("dense table has %d entries for %d ids ever spawned", len(net.dense), next-1)
	}
	// An id beyond twice the ids ever spawned (plus slack) is not dense.
	net.SpawnHandler(4*next+denseSlack, idle)
	if len(net.sparse) != 1 || len(net.dense) != int(next) {
		t.Fatalf("far id: sparse=%d dense=%d, want 1/%d", len(net.sparse), len(net.dense), next)
	}
	net.Shutdown()
}

// TestDuplicateSpawnPanicsOnBothPaths: the uniqueness check covers the
// dense table and the overflow map.
func TestDuplicateSpawnPanicsOnBothPaths(t *testing.T) {
	for _, id := range []NodeID{7, 1 << 50} {
		func() {
			net := NewNetwork(Config{Seed: 1})
			defer net.Shutdown()
			idle := HandlerFunc(func(*Ctx, []Message) bool { return true })
			net.SpawnHandler(id, idle)
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate spawn of id %d did not panic", id)
				}
			}()
			net.SpawnHandler(id, idle)
		}()
	}
}
