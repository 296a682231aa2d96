// Package dht implements the robust distributed hash table of Section
// 7.2: the RoBuSt-style storage system extended with the paper's
// reconfigured k-ary hypercube so that the servers need not be
// completely interconnected. Servers are organized into groups
// representing the vertices of a d-dimensional k-ary hypercube
// (Definition 1); requests are routed greedily over the group
// structure (diameter d), data is stored with logarithmic redundancy
// at a hash-determined replica set of servers, and the groups are
// rebuilt every Θ(log log n) rounds so that an Ω(log log n)-late
// adversary that can block up to γ·n^{1/log log n} servers never
// suppresses a whole group or replica set (Theorem 8).
//
// RoBuSt itself (Eikel, Scheideler, Setzer; OPODIS 2014) is
// closed-source; the storage layer here is the documented substitute:
// replicated key-value storage with Θ(log n) replicas per key and
// group-assisted routing, which preserves the properties Theorem 8
// relies on (any O(1)-per-server batch served, polylog rounds and
// congestion).
package dht

import (
	"fmt"
	"hash/fnv"
	"math"

	"overlaynet/internal/hypercube"
	"overlaynet/internal/rng"
	"overlaynet/internal/sim"
)

// Config configures the DHT.
type Config struct {
	Seed uint64
	// N is the number of servers.
	N int
}

// Result reports the outcome of one request.
type Result struct {
	// OK reports that the request was served: the route was available
	// and at least one replica server was reachable.
	OK bool
	// Found reports that the key had a value (reads only).
	Found bool
	// Hops is the number of group-to-group routing hops used.
	Hops int
	// Rounds is the number of communication rounds consumed (two per
	// hop: group-internal synchronization plus the inter-group send).
	Rounds int
}

// DHT is the robust distributed hash table.
type DHT struct {
	cfg Config
	// cube is the k-ary hypercube of groups, k^d ≈ n/log₂ n with
	// d ≈ k/log₂ k, the regime of Section 7.2.
	cube *hypercube.KAry
	r    *rng.RNG
	// replicas is the per-key redundancy, ⌈log₂ n⌉.
	replicas int

	groups    [][]sim.NodeID // per cube vertex
	nodeGroup []int32
	stores    []map[string]string // per server
	epoch     int
}

// New builds the DHT with servers assigned to groups uniformly.
func New(cfg Config) *DHT {
	if cfg.N < 64 {
		panic(fmt.Sprintf("dht: n = %d too small", cfg.N))
	}
	// d ≈ k/log₂ k with k^d ≤ n/log₂ n: search small (k, d) pairs.
	target := float64(cfg.N) / math.Log2(float64(cfg.N))
	bestK, bestD, bestV := 2, 1, 2.0
	for k := 2; k <= 16; k++ {
		d := int(math.Max(1, math.Round(float64(k)/math.Log2(float64(k)))))
		v := math.Pow(float64(k), float64(d))
		if v <= target && v > bestV {
			bestK, bestD, bestV = k, d, v
		}
	}
	d := &DHT{
		cfg:      cfg,
		cube:     hypercube.NewKAry(bestK, bestD),
		r:        rng.New(cfg.Seed),
		replicas: int(math.Ceil(math.Log2(float64(cfg.N)))),
	}
	if d.cube.N() > cfg.N {
		panic(fmt.Sprintf("dht: %d groups for %d servers", d.cube.N(), cfg.N))
	}
	d.stores = make([]map[string]string, cfg.N)
	for i := range d.stores {
		d.stores[i] = make(map[string]string)
	}
	d.nodeGroup = make([]int32, cfg.N)
	d.Rebuild()
	return d
}

// K returns the cube arity; D its dimension.
func (d *DHT) K() int { return d.cube.K }

// D returns the cube dimension (also the routing diameter).
func (d *DHT) D() int { return d.cube.D }

// NumGroups returns k^d.
func (d *DHT) NumGroups() int { return d.cube.N() }

// Rebuild reassigns every server to a uniformly random group — the
// k-ary extension of the Section 5 reconfiguration (each rebuild costs
// Θ(log log n) rounds of the underlying primitive; package supernode
// demonstrates the full mechanism for the binary cube).
func (d *DHT) Rebuild() {
	d.groups = make([][]sim.NodeID, d.cube.N())
	for v := 0; v < d.cfg.N; v++ {
		x := d.r.Intn(d.cube.N())
		d.nodeGroup[v] = int32(x)
		d.groups[x] = append(d.groups[x], sim.NodeID(v+1))
	}
	d.epoch++
}

// ReplicaSet returns the servers storing the given key: ⌈log₂ n⌉
// servers determined by iterated hashing (stable across rebuilds, as
// the paper notes that reconfiguration must not force data movement).
func (d *DHT) ReplicaSet(key string) []sim.NodeID {
	out := make([]sim.NodeID, 0, d.replicas)
	seen := make(map[uint64]bool, d.replicas)
	salt := 0
	for len(out) < d.replicas && salt < 64*d.replicas {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s/%d", key, salt)
		salt++
		v := h.Sum64() % uint64(d.cfg.N)
		if !seen[v] {
			seen[v] = true
			out = append(out, sim.NodeID(v+1))
		}
	}
	return out
}

// HomeVertex returns the cube vertex responsible for coordinating a
// key's requests.
func (d *DHT) HomeVertex(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(d.cube.N()))
}

// groupAvailable reports whether a group has at least one non-blocked
// member under the given blocked set.
func (d *DHT) groupAvailable(x int, blocked map[sim.NodeID]bool) bool {
	for _, id := range d.groups[x] {
		if blocked == nil || !blocked[id] {
			return true
		}
	}
	return false
}

// route returns the greedy path of cube vertices from src to dst
// (fixing coordinates left to right; length ≤ d).
func (d *DHT) route(src, dst int) []int {
	path := []int{src}
	cur := src
	for i := 0; i < d.cube.D; i++ {
		want := d.cube.Coord(dst, i)
		if d.cube.Coord(cur, i) != want {
			cur = d.cube.WithCoord(cur, i, want)
			path = append(path, cur)
		}
	}
	return path
}

// routeAvailable checks that every group on the path has an available
// member; hopBlocked(i) supplies the blocked set of hop i.
func (d *DHT) routeAvailable(path []int, hopBlocked func(i int) map[sim.NodeID]bool) bool {
	for i, x := range path {
		if !d.groupAvailable(x, hopBlocked(i)) {
			return false
		}
	}
	return true
}

// Write stores key=value: the request is routed from the entry
// server's group to the key's home vertex, whose group then writes the
// value to every replica server (blocked replicas miss the write —
// redundancy covers them). hopBlocked may be nil for no blocking.
func (d *DHT) Write(entry sim.NodeID, key, value string, hopBlocked func(i int) map[sim.NodeID]bool) Result {
	if hopBlocked == nil {
		hopBlocked = func(int) map[sim.NodeID]bool { return nil }
	}
	if b := hopBlocked(0); b != nil && b[entry] {
		return Result{}
	}
	path := d.route(int(d.nodeGroup[int(entry)-1]), d.HomeVertex(key))
	res := Result{Hops: len(path) - 1, Rounds: 2 * len(path)}
	if !d.routeAvailable(path, hopBlocked) {
		return res
	}
	final := hopBlocked(len(path))
	wrote := false
	for _, id := range d.ReplicaSet(key) {
		if final == nil || !final[id] {
			d.stores[int(id)-1][key] = value
			wrote = true
		}
	}
	res.OK = wrote
	return res
}

// Read fetches the key's value via the group structure; it succeeds if
// the route is available and at least one replica holder is
// non-blocked and has the value.
func (d *DHT) Read(entry sim.NodeID, key string, hopBlocked func(i int) map[sim.NodeID]bool) (string, Result) {
	if hopBlocked == nil {
		hopBlocked = func(int) map[sim.NodeID]bool { return nil }
	}
	if b := hopBlocked(0); b != nil && b[entry] {
		return "", Result{}
	}
	path := d.route(int(d.nodeGroup[int(entry)-1]), d.HomeVertex(key))
	res := Result{Hops: len(path) - 1, Rounds: 2 * len(path)}
	if !d.routeAvailable(path, hopBlocked) {
		return "", res
	}
	final := hopBlocked(len(path))
	for _, id := range d.ReplicaSet(key) {
		if final != nil && final[id] {
			continue
		}
		res.OK = true // a replica holder was reachable
		if v, ok := d.stores[int(id)-1][key]; ok {
			res.Found = true
			return v, res
		}
	}
	return "", res
}

// BatchStats summarizes a served batch (Theorem 8's quantities).
type BatchStats struct {
	Served, Failed int
	MaxRounds      int
	// MaxCongestion is the largest number of requests routed through
	// any single group.
	MaxCongestion int
}

// BatchOp is one request of a batch.
type BatchOp struct {
	Entry sim.NodeID
	Key   string
	Value string // empty = read
}

// ServeBatch serves a set of requests (at most O(1) per server in the
// paper's model) under a per-hop blocked set, measuring rounds and
// per-group congestion.
func (d *DHT) ServeBatch(ops []BatchOp, hopBlocked func(i int) map[sim.NodeID]bool) BatchStats {
	var st BatchStats
	congestion := make([]int, d.cube.N())
	for _, op := range ops {
		path := d.route(int(d.nodeGroup[int(op.Entry)-1]), d.HomeVertex(op.Key))
		for _, x := range path {
			congestion[x]++
		}
		var res Result
		if op.Value != "" {
			res = d.Write(op.Entry, op.Key, op.Value, hopBlocked)
		} else {
			_, res = d.Read(op.Entry, op.Key, hopBlocked)
		}
		if res.OK {
			st.Served++
		} else {
			st.Failed++
		}
		if res.Rounds > st.MaxRounds {
			st.MaxRounds = res.Rounds
		}
	}
	for _, c := range congestion {
		if c > st.MaxCongestion {
			st.MaxCongestion = c
		}
	}
	return st
}
