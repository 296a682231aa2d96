package splitmerge

import (
	"fmt"

	"overlaynet/internal/audit"
)

// This file is the §6 network's self-healing surface: deterministic
// corruption of the label tree and membership index (fault.Corrupter),
// the label-coverage invariant the corruption breaks, and a repair
// protocol that forces a re-balance back toward Equation (1).

// KnowledgeComponents returns the sizes of the connected components of
// the current knowledge-based overlay over all committed members (the
// graph ConnectedNow restricts to the non-blocked ones, including any
// open partition cut), largest first — the recovery experiments'
// degraded-mode service measure.
func (nw *Network) KnowledgeComponents() []int { return nw.eng.KnowledgeComponents() }

// checkLabelCoverage verifies that the supernode labels form an exact
// partition of the label space (the invariant behind ownerOf and the
// virtual-vertex sampling weights): no label may be an ancestor of —
// or equal to — another, and the subtree weights 2^(dmax−d(x)) must
// sum to the full 2^dmax cube. A dimension-mutated label breaks this
// immediately: its old subtree is double- or un-covered.
func (nw *Network) checkLabelCoverage() []audit.Violation {
	var out []audit.Violation
	_, dmax := nw.DimRange()
	var total uint64
	for i, s := range nw.supers {
		if d := s.label.Dim(); d <= dmax {
			total += 1 << uint(dmax-d)
		}
		for j := i + 1; j < len(nw.supers); j++ {
			t := nw.supers[j]
			if s.label.Equal(t.label) || s.label.IsAncestorOf(t.label) || t.label.IsAncestorOf(s.label) {
				out = append(out, audit.Violation{Detail: fmt.Sprintf(
					"labels %v and %v overlap (one is a prefix of the other)", s.label, t.label)})
			}
		}
	}
	if len(out) == 0 && total != 1<<uint(dmax) {
		out = append(out, audit.Violation{Detail: fmt.Sprintf(
			"labels cover %d of %d leaves of the depth-%d cube", total, uint64(1)<<uint(dmax), dmax)})
	}
	return out
}

// CorruptState implements fault.Corrupter: selected by pick, it either
// desynchronizes one member's nodeSuper index entry (heals at the next
// commit's reindex; the membership auditor fires until then) or mutates
// a supernode's dimension — relabeling it to its own 0-child, which
// punches a coverage hole at the 1-sibling and skews the 2^{−d(x)}
// sampling weight: persistent damage only a forced re-balance clears.
// Call it between Steps.
func (nw *Network) CorruptState(pick uint64) string {
	if len(nw.supers) < 2 {
		return ""
	}
	if pick%2 == 0 {
		members := nw.Members()
		if len(members) == 0 {
			return ""
		}
		id := members[int((pick>>8)%uint64(len(members)))]
		x := nw.eng.NodeGroup[id-1]
		y := (int(x) + 1 + int((pick>>40)%uint64(len(nw.supers)-1))) % len(nw.supers)
		nw.eng.NodeGroup[id-1] = int32(y)
		return fmt.Sprintf("node %d nodeSuper index desynced %d -> %d", id, x, y)
	}
	si := int((pick >> 8) % uint64(len(nw.supers)))
	s := nw.supers[si]
	if s.label.Dim() >= 60 {
		return ""
	}
	old := s.label
	s.label = old.Child(0)
	nw.sortSupers()
	// The vid tables index by label; rebuild so in-flight sampling
	// messages route exactly as the serial per-message label search
	// would against the mutated tree.
	nw.fillVidTables()
	return fmt.Sprintf("group %v dimension mutated to %v (coverage hole at %v)", old, s.label, old.Child(1))
}

// RepairBalance restores the label partition and forces a re-balance
// toward Equation (1): overlapping label subtrees are collapsed into
// their common ancestor, coverage holes are closed by promoting the
// orphaned sibling to its parent label, and a normalization pass then
// splits/merges every group back inside the Equation (1) band. The
// membership index is rebuilt last. Returns the number of structural
// fixes applied (0 when the tree was already a legal partition).
func (nw *Network) RepairBalance() int {
	fixes := 0
	// Collapse overlapping subtrees: if one label is an ancestor of (or
	// equal to) another, merge the whole subtree under the shorter label.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(nw.supers) && !changed; i++ {
			s := nw.supers[i]
			for j := i + 1; j < len(nw.supers); j++ {
				t := nw.supers[j]
				switch {
				case s.label.Equal(t.label) || s.label.IsAncestorOf(t.label):
					nw.mergeSubtree(s.label)
					fixes++
					changed = true
				case t.label.IsAncestorOf(s.label):
					nw.mergeSubtree(t.label)
					fixes++
					changed = true
				}
				if changed {
					break
				}
			}
		}
	}
	// Close coverage holes: a supernode whose sibling subtree has no
	// owner at all is promoted to its parent label, adopting the hole.
	for changed := true; changed; {
		changed = false
		for _, s := range nw.supers {
			if s.label.Dim() == 0 {
				continue
			}
			sib := s.label.Sibling()
			covered := false
			for _, t := range nw.supers {
				if sib.Equal(t.label) || sib.IsAncestorOf(t.label) {
					covered = true
					break
				}
			}
			if !covered {
				s.label = s.label.Parent()
				nw.sortSupers()
				fixes++
				changed = true
				break
			}
		}
	}
	nw.normalize()
	nw.indexMembers()
	nw.fillVidTables()
	return fixes
}

// RepairMembership reconciles the nodeSuper index with the committed
// group lists (the cheap half of repair, sufficient for pure index
// desync): every committed member's index entry is rewritten from its
// group, and stale index entries for unknown nodes are dropped.
// Returns the number of entries fixed.
func (nw *Network) RepairMembership() int {
	fixes := 0
	seen := make([]bool, len(nw.eng.NodeGroup))
	for x, s := range nw.supers {
		for _, id := range s.members {
			seen[id-1] = true
			if nw.eng.NodeGroup[id-1] != int32(x) {
				nw.eng.NodeGroup[id-1] = int32(x)
				fixes++
			}
		}
	}
	for v := range nw.eng.NodeGroup {
		if nw.eng.NodeGroup[v] >= 0 && !seen[v] {
			nw.eng.NodeGroup[v] = -1
			fixes++
		}
	}
	return fixes
}
