package graph

// UnionFind is a disjoint-set forest over the dense vertices 0..n-1,
// for connectivity questions that never need an edge back. A root holds
// minus the size of its set and every other vertex its parent, so the
// one []int32 carries both the forest and the component sizes.
type UnionFind struct{ p []int32 }

// Reset makes each of n vertices a singleton, reusing the backing array.
func (u *UnionFind) Reset(n int) {
	if cap(u.p) < n {
		u.p = make([]int32, n)
	}
	u.p = u.p[:n]
	for i := range u.p {
		u.p[i] = -1
	}
}

// Find returns the root of v's set, halving the path on the way.
func (u *UnionFind) Find(v int32) int32 {
	p := u.p
	for p[v] >= 0 {
		if g := p[p[v]]; g >= 0 {
			p[v] = g
		}
		v = p[v]
	}
	return v
}

// Union merges the sets of a and b, the smaller under the larger, and
// reports whether they were distinct.
func (u *UnionFind) Union(a, b int32) bool {
	a, b = u.Find(a), u.Find(b)
	if a == b {
		return false
	}
	if u.p[a] > u.p[b] {
		a, b = b, a
	}
	u.p[a] += u.p[b]
	u.p[b] = a
	return true
}

// Size returns the size of the set containing v.
func (u *UnionFind) Size(v int32) int { return int(-u.p[u.Find(v)]) }
