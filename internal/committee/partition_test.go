package committee

import (
	"slices"
	"testing"

	"overlaynet/internal/sim"
)

// damagedPartition decodes a toy partition and a burst of damage from
// data: data[0] and data[1] size it (4–35 nodes, 2–5 groups, node v in
// group v mod G, committed as the engine's view), and each following
// byte triple (kind, node, group) applies one damage — a pointer desync
// to any value in [−1, G], erasing the node's copy from a group, adding
// a copy to a group (its own included), or a clean removal that erases
// every copy and sets the pointer to −1.
func damagedPartition(data []byte) (*Engine, [][]sim.NodeID) {
	n, g := 4, 2
	if len(data) >= 2 {
		n, g, data = 4+int(data[0]%32), 2+int(data[1]%4), data[2:]
	}
	e := New(1, 1)
	e.Grow(n)
	groups := make([][]sim.NodeID, g)
	for v := range n {
		e.NodeGroup[v] = int32(v % g)
		groups[v%g] = append(groups[v%g], sim.NodeID(v+1))
	}
	e.commit(groups)
	for ; len(data) >= 3; data = data[3:] {
		v, x := int(data[1])%n, int(data[2])%g
		id := sim.NodeID(v + 1)
		switch data[0] % 4 {
		case 0:
			e.NodeGroup[v] = int32(int(data[2])%(g+2) - 1)
		case 1:
			if i := slices.Index(groups[x], id); i >= 0 {
				groups[x] = slices.Delete(groups[x], i, i+1)
			}
		case 2:
			groups[x] = append(groups[x], id)
			slices.Sort(groups[x])
		default:
			for y := range groups {
				groups[y] = slices.DeleteFunc(groups[y], func(u sim.NodeID) bool { return u == id })
			}
			e.NodeGroup[v] = -1
		}
	}
	return e, groups
}

// FuzzRepairPartition: after one RepairPartition over any damage burst,
// CheckPartition accepts the partition and a second repair fixes
// nothing; the first repair fixed nothing exactly when the check passed
// beforehand; every node that was placed or listed is listed exactly
// once; and a node listed in the group its pointer names stays there.
// The corpus catches a repair that keeps a second copy in the same group
// and one that keeps the first copy over the pointer's.
func FuzzRepairPartition(f *testing.F) {
	f.Add([]byte{4, 0, 2, 3, 1})                   // node 4 copied into its own group
	f.Add([]byte{4, 0, 2, 3, 0})                   // node 4 copied into an earlier group
	f.Add([]byte{6, 1, 0, 2, 1, 1, 5, 2, 2, 7, 2}) // desync, erase, copy elsewhere
	f.Add([]byte{9, 2, 3, 4, 0, 0, 4, 5, 1, 6, 2}) // clean removal, pointer revived out of range, erase
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, groups := damagedPartition(data)
		defer e.Close()
		n := len(e.NodeGroup)
		before := slices.Clone(e.NodeGroup)
		owed := make([]bool, n) // placed or listed before the repair
		atHome := make([]bool, n)
		for x, g := range groups {
			for _, id := range g {
				owed[id-1] = true
				atHome[id-1] = atHome[id-1] || before[id-1] == int32(x)
			}
		}
		for v, x := range before {
			owed[v] = owed[v] || x >= 0
		}
		clean := e.CheckPartition(groups) == nil
		if fixes := e.RepairPartition(groups); (fixes == 0) != clean {
			t.Fatalf("repair made %d fixes to a partition the check called clean=%v", fixes, clean)
		}
		if v := e.CheckPartition(groups); v != nil {
			t.Fatalf("repaired partition rejected: %+v (groups %v)", v, groups)
		}
		if fixes := e.RepairPartition(groups); fixes != 0 {
			t.Fatalf("second repair made %d fixes", fixes)
		}
		count := make([]int, n)
		for _, g := range groups {
			for _, id := range g {
				count[id-1]++
			}
		}
		for v := range n {
			if owed[v] && count[v] != 1 {
				t.Fatalf("node %d listed %d times after repair (groups %v)", v+1, count[v], groups)
			}
			if atHome[v] && e.NodeGroup[v] != before[v] {
				t.Fatalf("node %d left group %d, which its pointer named, for %d", v+1, before[v], e.NodeGroup[v])
			}
		}
	})
}
