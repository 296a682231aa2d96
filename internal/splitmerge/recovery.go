package splitmerge

import (
	"fmt"
	"slices"

	"overlaynet/internal/audit"
	"overlaynet/internal/hypercube"
)

// This file is the §6 network's self-healing surface: deterministic
// corruption of the label tree and membership index (fault.Corrupter),
// the label-coverage invariant the corruption breaks, and a repair
// protocol that forces a re-balance back toward Equation (1).

// labelFault is one defect of the label rule. Without s it is an
// overlap: x is a prefix of, or equal to, y, and the repair collapses
// x's subtree. With s it is a hole: no label lies under x's sibling,
// where x is s's label or an ancestor of it, and the repair moves s up
// to x's parent.
type labelFault struct {
	x, y hypercube.Label
	s    *super
}

// within reports whether label y lies in x's subtree: y is x or a
// descendant of it.
func within(x, y hypercube.Label) bool { return x.Equal(y) || x.IsAncestorOf(y) }

// labelDefect is the §6 label rule — the supernode labels partition the
// label space, the invariant behind ownerOf and the virtual-vertex
// sampling weights — written once for the label-coverage checker and
// RepairBalance. It returns the first defect in scan order, or ok =
// false when the rule holds: overlaps first (pairs in label order; the
// supers are sorted by (dimension, bits), so the shorter label comes
// first), then holes (each label's sibling, then its ancestors'
// siblings). For a prefix-free, non-empty set, a label under every
// sibling on every label's path to the root is exactly full coverage.
func (nw *Network) labelDefect() (f labelFault, ok bool) {
	for i, s := range nw.supers {
		for _, t := range nw.supers[i+1:] {
			if within(s.label, t.label) {
				return labelFault{x: s.label, y: t.label}, true
			}
		}
	}
	for _, s := range nw.supers {
		for x := s.label; x.Dim() > 0; x = x.Parent() {
			sib := x.Sibling()
			if !slices.ContainsFunc(nw.supers, func(t *super) bool { return within(sib, t.label) }) {
				return labelFault{x: x, s: s}, true
			}
		}
	}
	return labelFault{}, false
}

// checkLabelCoverage is the label-coverage checker: labelDefect's first
// defect, if any. A dimension-mutated label breaks the rule at once:
// its old subtree is un-covered.
func (nw *Network) checkLabelCoverage() []audit.Violation {
	f, ok := nw.labelDefect()
	switch {
	case !ok:
		return nil
	case f.s == nil:
		return []audit.Violation{{Detail: fmt.Sprintf(
			"labels %v and %v overlap (one is a prefix of the other)", f.x, f.y)}}
	default:
		return []audit.Violation{{Detail: fmt.Sprintf(
			"no label covers %v, the sibling of %v", f.x.Sibling(), f.x)}}
	}
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

// RepairBalance restores the label rule (labelDefect) and forces a
// re-balance toward Equation (1): it fixes the first defect until none
// is left — an overlap collapses into the shorter label, a hole is
// closed by moving the label above it up to the hole's parent — and a
// normalization pass then splits/merges every group back inside the
// Equation (1) band. The groups are sorted again and the membership index
// is rebuilt from them last (RepairMembership). Returns the number of
// structural fixes applied, 0 exactly when the label rule held.
func (nw *Network) RepairBalance() int {
	fixes := 0
	for f, ok := nw.labelDefect(); ok; f, ok = nw.labelDefect() {
		if f.s == nil {
			nw.mergeSubtree(f.x)
		} else {
			f.s.label = f.x.Parent()
			nw.sortSupers()
		}
		fixes++
	}
	nw.normalize()
	for _, s := range nw.supers {
		slices.Sort(s.members)
	}
	nw.RepairMembership()
	nw.fillVidTables()
	return fixes
}

// RepairMembership reconciles the nodeSuper index with the committed
// group lists (the cheap half of repair, sufficient for pure index
// desync) by the rule the membership auditor checks
// (committee.Engine.RepairPartition): every committed member's index
// entry is rewritten from its group, duplicate copies collapse onto one,
// and a node the index places but no group lists rejoins the group the
// index names. Returns the number of entries fixed.
func (nw *Network) RepairMembership() int {
	members, _ := nw.viewSupers()
	fixes := nw.eng.RepairPartition(members)
	for x, s := range nw.supers {
		s.members = members[x]
	}
	return fixes
}
