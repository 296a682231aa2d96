package dht

import (
	"fmt"
	"testing"
	"testing/quick"

	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

func TestAutoSizing(t *testing.T) {
	d := New(Config{Seed: 1, N: 1024})
	if d.NumGroups() > 1024 || d.NumGroups() < 8 {
		t.Fatalf("k=%d d=%d gives %d groups for 1024 servers", d.K(), d.D(), d.NumGroups())
	}
	total := 0
	for _, g := range d.groups {
		total += len(g)
	}
	if total != 1024 {
		t.Fatalf("groups cover %d servers", total)
	}
}

func TestReadYourWrites(t *testing.T) {
	d := New(Config{Seed: 2, N: 256})
	res := d.Write(sim.NodeID(1), "alpha", "1", nil)
	if !res.OK {
		t.Fatalf("write failed: %+v", res)
	}
	v, rres := d.Read(sim.NodeID(200), "alpha", nil)
	if !rres.OK || !rres.Found || v != "1" {
		t.Fatalf("read = %q %+v", v, rres)
	}
}

func TestReadMissingKey(t *testing.T) {
	d := New(Config{Seed: 3, N: 256})
	v, res := d.Read(sim.NodeID(1), "nope", nil)
	if !res.OK || res.Found || v != "" {
		t.Fatalf("missing key read = %q %+v", v, res)
	}
}

func TestReadYourWritesProperty(t *testing.T) {
	d := New(Config{Seed: 4, N: 256})
	f := func(keyRaw uint32, valRaw uint32, entryRaw uint8) bool {
		key := fmt.Sprintf("k%d", keyRaw)
		val := fmt.Sprintf("v%d", valRaw)
		entry := sim.NodeID(int(entryRaw)%256 + 1)
		if !d.Write(entry, key, val, nil).OK {
			return false
		}
		got, res := d.Read(sim.NodeID(int(entryRaw/2)%256+1), key, nil)
		return res.Found && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteWithinDiameter(t *testing.T) {
	d := New(Config{Seed: 5, N: 1024})
	for i := 0; i < 200; i++ {
		res := d.Write(sim.NodeID(i%1024+1), fmt.Sprintf("key%d", i), "x", nil)
		if res.Hops > d.D() {
			t.Fatalf("route used %d hops, diameter %d", res.Hops, d.D())
		}
	}
}

func TestReplicaSetStableAndSized(t *testing.T) {
	d := New(Config{Seed: 6, N: 512})
	a := d.ReplicaSet("stable-key")
	d.Rebuild()
	b := d.ReplicaSet("stable-key")
	if len(a) != len(b) {
		t.Fatal("replica count changed across rebuild")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replica set moved across rebuild; data would have to migrate")
		}
	}
	if len(a) != 9 { // ceil(log2 512)
		t.Fatalf("replica count %d, want 9", len(a))
	}
	seen := map[sim.NodeID]bool{}
	for _, id := range a {
		if seen[id] {
			t.Fatal("duplicate replica")
		}
		seen[id] = true
	}
}

func TestDataSurvivesRebuild(t *testing.T) {
	d := New(Config{Seed: 7, N: 256})
	d.Write(sim.NodeID(1), "persist", "42", nil)
	for i := 0; i < 5; i++ {
		d.Rebuild()
	}
	v, res := d.Read(sim.NodeID(77), "persist", nil)
	if !res.Found || v != "42" {
		t.Fatalf("data lost across rebuilds: %q %+v", v, res)
	}
}

func TestBlockingBelowBudgetServed(t *testing.T) {
	// Theorem 8 regime: the adversary blocks γ·n^{1/log log n} servers
	// — far fewer than a group or replica set can lose.
	const n = 1024
	d := New(Config{Seed: 8, N: n})
	r := rng.New(80)
	// γ n^{1/loglog n}: loglog 1024 ≈ 3.32, n^{0.3} ≈ 8; block 8.
	blocked := map[sim.NodeID]bool{}
	for len(blocked) < 8 {
		blocked[sim.NodeID(r.Intn(n)+1)] = true
	}
	hop := func(int) map[sim.NodeID]bool { return blocked }
	served := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		entry := sim.NodeID(i%n + 1)
		if blocked[entry] {
			continue
		}
		if d.Write(entry, key, "v", hop).OK {
			if _, res := d.Read(entry, key, hop); res.Found {
				served++
			}
		}
	}
	if served < 190 {
		t.Fatalf("only %d/200 requests served under budget blocking", served)
	}
}

func TestWholeGroupBlockedFailsRoute(t *testing.T) {
	d := New(Config{Seed: 9, N: 256})
	// Block every member of the home group of a key.
	key := "victim"
	home := d.HomeVertex(key)
	blocked := map[sim.NodeID]bool{}
	for _, id := range d.groups[home] {
		blocked[id] = true
	}
	// Entry in a different group.
	var entry sim.NodeID
	for v := 1; v <= 256; v++ {
		if int(d.nodeGroup[v-1]) != home {
			entry = sim.NodeID(v)
			break
		}
	}
	res := d.Write(entry, key, "x", func(int) map[sim.NodeID]bool { return blocked })
	if res.OK {
		t.Fatal("write succeeded despite fully blocked home group")
	}
}

func TestServeBatchCongestion(t *testing.T) {
	const n = 1024
	d := New(Config{Seed: 10, N: n})
	var ops []BatchOp
	for i := 0; i < n; i++ { // one request per server, the paper's model
		ops = append(ops, BatchOp{
			Entry: sim.NodeID(i + 1),
			Key:   fmt.Sprintf("k%d", i),
			Value: "v",
		})
	}
	st := d.ServeBatch(ops, nil)
	if st.Failed != 0 {
		t.Fatalf("batch failures: %+v", st)
	}
	if st.MaxRounds > 2*(d.D()+1) {
		t.Fatalf("rounds %d exceed 2(d+1)", st.MaxRounds)
	}
	// Theorem 8: congestion polylog; with one request per server the
	// expected load per group is n/k^d · d ≈ log n · d.
	limit := 40 * d.D() * n / d.NumGroups()
	if st.MaxCongestion > limit {
		t.Fatalf("max congestion %d exceeds %d", st.MaxCongestion, limit)
	}
}

func TestRebuildChangesGroups(t *testing.T) {
	d := New(Config{Seed: 11, N: 512})
	before := append([]int32(nil), d.nodeGroup...)
	d.Rebuild()
	changed := 0
	for i := range before {
		if d.nodeGroup[i] != before[i] {
			changed++
		}
	}
	if changed < 256 {
		t.Fatalf("rebuild moved only %d/512 servers", changed)
	}
	if d.epoch != 2 {
		t.Fatalf("epoch = %d", d.epoch)
	}
}
