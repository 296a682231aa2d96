package committee

import (
	"overlaynet/internal/dos"
	"overlaynet/internal/sim"
)

// Publication is the copy of a stack's committed topology that its DoS
// snapshots share. A dos.Buffer keeps one snapshot per round for the late
// adversary, yet the committed lists change only at a commit — once per
// epoch — or when the stack edits them in place (a corruption or a
// repair). So the first Snapshot after a change makes the copy and every
// later one shares it, each with its own header and Round. A copy is never
// written once it is handed out: a snapshot stays what it was when
// published, however long a buffer holds it.
type Publication struct {
	top    dos.Snapshot // the copy (Round unused); Groups nil when there is none
	commit int          // the loop's commit count the copy was made at
}

// Snapshot returns the topology as of l's current round. fill returns a
// fresh copy of the stack's groups and adjacency; it runs only when there is
// no copy of the current state: first, after a commit, and after
// Invalidate.
func (p *Publication) Snapshot(l *Loop, fill func() (groups [][]sim.NodeID, adj [][]int32)) *dos.Snapshot {
	if p.top.Groups == nil || p.commit != l.commits {
		p.top.Groups, p.top.Adj = fill()
		p.commit = l.commits
	}
	s := p.top
	s.Round = l.e.Round
	return &s
}

// Invalidate drops the copy. A stack calls it when it edits its committed
// lists in place between commits.
func (p *Publication) Invalidate() { p.top.Groups = nil }

// CloneLists returns a deep copy of lists in one backing array, each list
// capped at its own length so that no append runs into the next. An empty
// list stays nil, as in a list-by-list clone.
func CloneLists[T any](lists [][]T) [][]T {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	flat := make([]T, 0, n)
	out := make([][]T, len(lists))
	for i, l := range lists {
		if len(l) > 0 {
			lo := len(flat)
			flat = append(flat, l...)
			out[i] = flat[lo:len(flat):len(flat)]
		}
	}
	return out
}
