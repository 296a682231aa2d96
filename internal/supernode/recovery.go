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
				nw.pub.Invalidate()
				nw.groups[x] = append(g[:i:i], g[i+1:]...)
				return fmt.Sprintf("node %d erased from group %d's replicated state", id, x)
			}
		}
		return ""
	default:
		y := (x + 1 + int((pick>>40)%uint64(nw.nSuper-1))) % nw.nSuper
		nw.pub.Invalidate()
		nw.groups[y] = append(nw.groups[y], id)
		slices.Sort(nw.groups[y])
		return fmt.Sprintf("node %d duplicated into group %d (home %d)", id, y, x)
	}
}

// RepairGroups re-forms the group partition from the surviving
// replicas, the §5 analogue of the join-protocol splice, by the rule the
// supernode-groups auditor checks (committee.Engine.RepairPartition):
// duplicate copies collapse onto the one the node's own pointer names,
// nodes missing from every replicated list rejoin the group their
// pointer — or the last committed view — names, and the pointers are
// rebuilt from the final lists. Returns the number of fixes applied;
// zero means the partition was already consistent.
func (nw *Network) RepairGroups() int {
	nw.pub.Invalidate()
	return nw.eng.RepairPartition(nw.groups)
}
