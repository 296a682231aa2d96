package committee

import (
	"fmt"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/sim"
)

// This file is the group-partition rule §5 and §6 share: every node sits
// in at most one committee. A stack's committee lists and the engine's
// NodeGroup are a legal partition when every listed id is a node slot,
// listed exactly once across all lists, in the list its NodeGroup entry
// names, and every slot NodeGroup places (≥ 0) is listed somewhere. The
// audit check and the repair both answer to that one rule.

// CheckPartition checks groups and NodeGroup against the partition rule.
// It returns nil, or one violation naming up to 16 of the nodes that
// break it.
func (e *Engine) CheckPartition(groups [][]sim.NodeID) []audit.Violation {
	n := len(e.NodeGroup)
	listed := make([]bool, n)
	var bad []uint64
	var detail string
	flag := func(id sim.NodeID, why string) { bad, detail = append(bad, uint64(id)), why }
	for x, g := range groups {
		for _, id := range g {
			v := int(id) - 1
			switch {
			case v < 0 || v >= n:
				flag(id, "group member id out of range")
			case listed[v]:
				flag(id, "node listed more than once")
			default:
				listed[v] = true
				if e.NodeGroup[v] != int32(x) {
					flag(id, "nodeGroup pointer disagrees with group membership")
				}
			}
		}
	}
	for v, x := range e.NodeGroup {
		if x >= 0 && !listed[v] {
			flag(sim.NodeID(v+1), "node placed but missing from every group")
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return []audit.Violation{{Detail: fmt.Sprintf("%s (%d nodes affected)", detail, len(bad)),
		Nodes: bad[:min(len(bad), 16)]}}
}

// RepairPartition edits groups in place until CheckPartition accepts
// them. A node listed more than once keeps the copy in the group its
// NodeGroup names, or else its first; every other copy goes, a second
// one in the same group included. Ids that are no node slot go too. A
// placed node listed nowhere rejoins the group its pointer names, or the
// one the current epoch's view names when the pointer is out of range
// (when that is out of range too, the node is no longer placed). NodeGroup
// is then rebuilt from the lists. Returns the number of fixes: 0 exactly
// when CheckPartition returned nil.
func (e *Engine) RepairPartition(groups [][]sim.NodeID) int {
	n := len(e.NodeGroup)
	keep := make([]int32, n) // the group whose copy survives, −1 for none yet
	for v := range keep {
		keep[v] = -1
	}
	for x, g := range groups {
		for _, id := range g {
			if v := int(id) - 1; v >= 0 && v < n && (keep[v] < 0 || e.NodeGroup[v] == int32(x)) {
				keep[v] = int32(x)
			}
		}
	}
	fixes := 0
	listed := make([]bool, n)
	for x, g := range groups {
		out := g[:0]
		for _, id := range g {
			if v := int(id) - 1; v >= 0 && v < n && keep[v] == int32(x) && !listed[v] {
				listed[v] = true
				out = append(out, id)
			} else {
				fixes++
			}
		}
		groups[x] = out
	}
	for v, x := range e.NodeGroup {
		if x < 0 || listed[v] {
			continue
		}
		if int(x) >= len(groups) {
			x = -1
			if view := e.ViewAt(e.Epoch); v < len(view.NodeGroup) {
				x = view.NodeGroup[v]
			}
		}
		fixes++
		if x < 0 || int(x) >= len(groups) {
			e.NodeGroup[v] = -1
			continue
		}
		id := sim.NodeID(v + 1)
		i, _ := slices.BinarySearch(groups[x], id)
		groups[x] = slices.Insert(groups[x], i, id)
	}
	for x, g := range groups {
		for _, id := range g {
			if e.NodeGroup[id-1] != int32(x) {
				e.NodeGroup[id-1] = int32(x)
				fixes++
			}
		}
	}
	return fixes
}
