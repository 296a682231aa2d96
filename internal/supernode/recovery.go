package supernode

import (
	"fmt"
	"slices"

	"overlaynet/internal/sim"
)

// This file is the §5 network's self-healing surface: deterministic
// corruption of the replicated group state (fault.Corrupter) and a
// repair protocol that re-forms the group partition from the surviving
// replicas.

// CorruptState implements fault.Corrupter: it perturbs the live
// replicated group state in one of three ways selected by pick —
// desynchronize a node's nodeGroup pointer (heals at the next commit,
// when pointers are rebuilt from the group lists), erase a node from
// its group's replicated member list (the node stops being reassigned
// at reorganizations: persistent damage only repair clears), or
// duplicate a node into a second group (the node is assigned twice per
// reorganization and the damage compounds). Call it between Steps.
func (nw *Network) CorruptState(pick uint64) string {
	n := nw.cfg.N
	if n == 0 || nw.nSuper < 2 {
		return ""
	}
	v := int((pick >> 8) % uint64(n))
	id := sim.NodeID(v + 1)
	x := int(nw.eng.NodeGroup[v])
	switch pick % 3 {
	case 0:
		y := (x + 1 + int((pick>>40)%uint64(nw.nSuper-1))) % nw.nSuper
		nw.eng.NodeGroup[v] = int32(y)
		return fmt.Sprintf("node %d nodeGroup pointer desynced %d -> %d", id, x, y)
	case 1:
		g := nw.groups[x]
		for i, u := range g {
			if u == id {
				nw.groups[x] = append(g[:i:i], g[i+1:]...)
				return fmt.Sprintf("node %d erased from group %d's replicated state", id, x)
			}
		}
		return ""
	default:
		y := (x + 1 + int((pick>>40)%uint64(nw.nSuper-1))) % nw.nSuper
		nw.groups[y] = append(nw.groups[y], id)
		slices.Sort(nw.groups[y])
		return fmt.Sprintf("node %d duplicated into group %d (home %d)", id, y, x)
	}
}

// RepairGroups re-forms the group partition from the surviving
// replicas, the §5 analogue of the join-protocol splice: duplicate
// occurrences collapse onto the copy the node's own pointer names (or
// the lowest-index group holding one), nodes missing from every
// replicated list are re-admitted to the group their pointer — or,
// failing that, the last committed epoch snapshot — names, and the
// pointers are rebuilt from the final lists. Returns the number of
// fixes applied; zero means the partition was already consistent.
func (nw *Network) RepairGroups() int {
	n := nw.cfg.N
	fixes := 0
	where := make([][]int, n) // groups currently listing each node
	for x, g := range nw.groups {
		for _, id := range g {
			v := int(id) - 1
			if v >= 0 && v < n {
				where[v] = append(where[v], x)
			}
		}
	}
	remove := make(map[int]map[sim.NodeID]bool) // group -> ids to drop
	for v := 0; v < n; v++ {
		id := sim.NodeID(v + 1)
		switch {
		case len(where[v]) == 0:
			x := int(nw.eng.NodeGroup[v])
			if x < 0 || x >= nw.nSuper {
				x = int(nw.eng.ViewAt(nw.eng.Epoch).NodeGroup[v])
			}
			nw.groups[x] = append(nw.groups[x], id)
			slices.Sort(nw.groups[x])
			fixes++
		case len(where[v]) > 1:
			keep := where[v][0]
			for _, x := range where[v] {
				if int32(x) == nw.eng.NodeGroup[v] {
					keep = x
					break
				}
			}
			for _, x := range where[v] {
				if x != keep {
					if remove[x] == nil {
						remove[x] = make(map[sim.NodeID]bool)
					}
					remove[x][id] = true
					fixes++
				}
			}
		}
	}
	for x, ids := range remove {
		g := nw.groups[x][:0]
		for _, id := range nw.groups[x] {
			if !ids[id] {
				g = append(g, id)
			}
		}
		nw.groups[x] = g
	}
	for x, g := range nw.groups {
		for _, id := range g {
			if nw.eng.NodeGroup[int(id)-1] != int32(x) {
				nw.eng.NodeGroup[int(id)-1] = int32(x)
				fixes++
			}
		}
	}
	return fixes
}
