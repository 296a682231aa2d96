package committee

import (
	"slices"

	"overlaynet/internal/graph"
	"overlaynet/internal/sim"
)

// View is one epoch's committed assignment: what a node that last heard
// from its committee in that epoch believes the overlay to be. NodeGroup
// is slot-indexed, −1 for a slot that was no member then.
type View struct {
	Groups    [][]sim.NodeID
	NodeGroup []int32
	Adj       [][]int32 // committee adjacency, the stack's (Hooks.Adj)
}

// history is the ring of the views some member still holds, epochs
// [base, base+n), and the oracle's scratch. Pruned views are recycled
// through free, arenas and all.
type history struct {
	hist []View
	head int
	n    int
	base int
	free []View

	// Oracle scratch (collapseViews), created by the first measurement so
	// a network that never measures carries none; exported for the stacks'
	// differential and allocation tests. ConnRep has two halves, each
	// indexed by (live view, committee, partition component) and holding
	// slot+1, −1 for none, 0 for not yet seen: the first half is a
	// representative of the set's eligible members, the second a viewer
	// already merged with every set its view names.
	ConnUF  graph.UnionFind
	ConnRep []int32
}

// ViewAt returns the view committed in the given epoch, which must still
// be in the ring: epochs below every member's ViewEpoch are pruned.
func (e *Engine) ViewAt(epoch int) *View {
	return &e.hist[(e.head+epoch-e.base)%len(e.hist)]
}

// Views returns the epochs the ring holds: [base, base+n).
func (e *Engine) Views() (base, n int) { return e.base, e.n }

// commit records groups and NodeGroup (both copied) as the current
// epoch's view, recycles every view no member's ViewEpoch still names,
// and returns the new view for the caller to set Adj: either a slice it
// never modifies again or one rebuilt in the recycled Adj's arenas.
func (e *Engine) commit(groups [][]sim.NodeID) *View {
	var v View
	if k := len(e.free); k > 0 {
		v, e.free = e.free[k-1], e.free[:k-1]
	}
	v.Groups = slices.Grow(v.Groups[:0], len(groups))[:len(groups)]
	for x, g := range groups {
		v.Groups[x] = append(v.Groups[x][:0], g...)
	}
	v.NodeGroup = append(v.NodeGroup[:0], e.NodeGroup...)
	if e.n == len(e.hist) {
		grown := make([]View, max(4, 2*len(e.hist)))
		for i := 0; i < e.n; i++ {
			grown[i] = e.hist[(e.head+i)%len(e.hist)]
		}
		e.hist, e.head = grown, 0
	}
	e.hist[(e.head+e.n)%len(e.hist)] = v
	e.n++

	oldest := e.Epoch
	for s, g := range e.NodeGroup {
		if g >= 0 {
			oldest = min(oldest, int(e.ViewEpoch[s]))
		}
	}
	for e.base < oldest && e.n > 1 {
		e.free = append(e.free, e.hist[e.head])
		e.hist[e.head] = View{}
		e.head = (e.head + 1) % len(e.hist)
		e.n--
		e.base++
	}
	return e.ViewAt(e.Epoch)
}

// ConnectedNow reports whether the non-blocked members form a connected
// graph under each node's current knowledge (a stale node contributes the
// edges of the epoch it last received). While a partition window is open,
// cross-component knowledge edges are down: no message can traverse them,
// so they cannot carry the overlay.
func (l *Loop) ConnectedNow() bool {
	alive, comps := l.e.collapseViews(false)
	return alive <= 1 || comps == 1
}

// KnowledgeComponents returns the sizes of the connected components of
// the knowledge graph over all members (the graph ConnectedNow restricts
// to the non-blocked ones, including any open partition cut), largest
// first — the recovery experiments' degraded-mode service measure.
func (l *Loop) KnowledgeComponents() []int {
	e := l.e
	e.collapseViews(true)
	var sizes []int
	for v, g := range e.NodeGroup {
		if g >= 0 && e.ConnUF.Find(int32(v)) == int32(v) {
			sizes = append(sizes, e.ConnUF.Size(int32(v)))
		}
	}
	slices.SortFunc(sizes, func(a, b int) int { return b - a })
	return sizes
}

// collapseViews leaves in ConnUF the components of the knowledge graph
// over the non-blocked members (over every member when all is set),
// without enumerating an edge, and returns how many vertices and
// components there are; every other slot stays a singleton. A viewer v
// whose view is (epoch h, group x) is adjacent to every eligible member
// of h.Groups[y] for y = x and each y adjacent to x in h, so each such set
// is one component as soon as it has a viewer: the first viewer of (h, y,
// partition component) unions the set and leaves a representative in
// ConnRep's first half. All viewers of one (h, x, partition component)
// join the same sets, so the first of them unions itself with each set's
// representative and leaves itself in ConnRep's second half, and every
// later one makes a single union with it. Eligible means still a member,
// non-blocked unless all, and on the viewer's side of an open partition.
// See DESIGN.md, "Connectivity oracle".
func (e *Engine) collapseViews(all bool) (vertices, comps int) {
	b0 := e.blocked[0]
	k := e.Faults.Components(e.Round) // partition components a viewer can be in
	var buf [16]*View                 // the live views, epoch base first; more spill to the heap
	views := buf[:0]
	stride := 0 // the most committees any live view has
	for i := 0; i < e.n; i++ {
		views = append(views, e.ViewAt(e.base+i))
		stride = max(stride, len(views[i].Groups))
	}
	uf := &e.ConnUF
	uf.Reset(len(e.NodeGroup))
	keys := e.n * stride * k
	e.ConnRep = slices.Grow(e.ConnRep[:0], 2*keys)[:2*keys]
	clear(e.ConnRep)
	sets, viewers := e.ConnRep[:keys], e.ConnRep[keys:]
	merges := 0
	for v, g := range e.NodeGroup {
		v := int32(v)
		if g < 0 || !all && b0.Test(v) {
			continue // every edge a blocked viewer owns has a blocked endpoint
		}
		vertices++
		ep := min(max(int(e.ViewEpoch[v]), e.base), e.Epoch) - e.base
		h := views[ep]
		if int(v) >= len(h.NodeGroup) || h.NodeGroup[v] < 0 {
			continue // not a member in the epoch it last heard of: knows nobody
		}
		c := 0
		if k > 1 {
			c = e.Faults.Component(uint64(v) + 1)
		}
		x := h.NodeGroup[v]
		first := &viewers[(ep*stride+int(x))*k+c]
		if *first != 0 {
			if *first > 0 && uf.Union(v, *first-1) {
				merges++
			}
			continue
		}
		*first = -1
		adj := h.Adj[x]
		for i := -1; i < len(adj); i++ { // y = x, then each neighbour of x
			y := x
			if i >= 0 {
				y = adj[i]
			}
			rep := &sets[(ep*stride+int(y))*k+c]
			if *rep == 0 {
				*rep = -1
				for _, id := range h.Groups[y] {
					w := int32(id - 1)
					if e.NodeGroup[w] < 0 || !all && b0.Test(w) || k > 1 && e.Faults.Component(uint64(id)) != c {
						continue
					}
					if *rep < 0 {
						*rep = w + 1
					} else if uf.Union(*rep-1, w) {
						merges++
					}
				}
			}
			if *rep > 0 {
				*first = v + 1
				if uf.Union(v, *rep-1) {
					merges++
				}
			}
		}
	}
	return vertices, vertices - merges
}
