// Package graph provides the static-graph substrate for the dynamic-network
// simulator: an immutable graph in compressed-sparse-row (CSR) layout over a
// fixed node-id space, union and intersection, α-neighborhood balls with
// fingerprints for locally-static detection, and the synthetic workload
// generators used by the experiments.
//
// All graphs in this repository are simple and undirected, matching
// Definition 2.2 of the paper. Node ids are dense int32 values in [0, N)
// where N is the size of the potential-node universe V; a round graph G_r
// may touch only a subset of those ids (the awake nodes), which the engine
// tracks separately.
//
// The CSR layout packs every adjacency list into one shared arena: the
// sorted neighbors of v occupy neighbors[offsets[v]:offsets[v+1]]. Building
// a graph is two O(m) counting passes over a sorted edge-key list, and the
// offsets array doubles as the exact cumulative-degree prefix sum the
// engine uses for edge-balanced work partitioning.
//
// Every graph additionally carries its sorted edge-key list, exposed
// zero-copy as EdgeKeys: diffing two rounds' topologies is one linear
// merge (DiffSortedKeys). DynAdj maintains a current topology under such
// sorted add/remove diffs as per-node sorted rows, in O(changes·Δ) per
// diff — which is what makes the simulator's delta-native topology plane
// (adversary → engine → window → checker, see internal/engine) cost
// O(changes) per round rather than O(n+m) — and builds a CSR graph from
// its rows, into two arenas used in turn, only when one is asked for.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a node in the potential-node universe V.
type NodeID = int32

// EdgeKey packs an undirected edge {u, v} with u < v into one comparable
// 64-bit value, used as a map key by builders, sliding windows and
// adversaries. The natural uint64 order of keys is the lexicographic
// (u, v) order, which the CSR build exploits.
type EdgeKey uint64

// MakeEdgeKey builds the canonical key for the undirected edge {u, v}.
// It panics if u == v (self-loops are not part of the model).
func MakeEdgeKey(u, v NodeID) EdgeKey {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return EdgeKey(uint64(uint32(u))<<32 | uint64(uint32(v)))
}

// Nodes unpacks the edge endpoints with u < v.
func (k EdgeKey) Nodes() (u, v NodeID) {
	return NodeID(uint32(k >> 32)), NodeID(uint32(k))
}

// String renders the edge as "{u,v}".
func (k EdgeKey) String() string {
	u, v := k.Nodes()
	return fmt.Sprintf("{%d,%d}", u, v)
}

// Graph is an immutable simple undirected graph in CSR layout over the
// node-id space [0, N()): offsets has length N()+1 and the sorted
// adjacency list of v is neighbors[offsets[v]:offsets[v+1]]. Alongside the
// CSR arrays every graph carries its sorted edge-key list, so diffing two
// graphs (DiffSortedKeys) and re-reading the edge set (EdgeKeys) are
// zero-copy linear operations.
type Graph struct {
	n         int
	m         int
	offsets   []int32
	neighbors []NodeID
	keys      []EdgeKey // sorted; same edge set as the CSR arrays
}

// Empty returns the edgeless graph on n node slots.
func Empty(n int) *Graph {
	return &Graph{n: n, offsets: make([]int32, n+1)}
}

// FromEdges builds a graph on n node slots from an edge list. Duplicate
// edges are collapsed; it panics on out-of-range endpoints. The input
// slice is not modified.
func FromEdges(n int, edges []EdgeKey) *Graph {
	if len(edges) == 0 {
		return Empty(n)
	}
	keys := append(make([]EdgeKey, 0, len(edges)), edges...)
	slices.Sort(keys)
	keys = slices.Compact(keys)
	return fromSortedKeys(n, keys)
}

// FromSortedEdges builds a graph from a strictly ascending edge-key list
// without sorting — the fast path for generators and windows that produce
// keys in canonical order. The input is copied (callers routinely reuse
// their key scratch across rounds; the graph must own its edge list for
// EdgeKeys to stay valid). It panics if the list is not strictly ascending
// or an endpoint is out of range.
//
//dynlint:sorted edges
func FromSortedEdges(n int, edges []EdgeKey) *Graph {
	for i := 1; i < len(edges); i++ {
		if edges[i-1] >= edges[i] {
			panic(fmt.Sprintf("graph: FromSortedEdges keys not strictly ascending at %d", i))
		}
	}
	return fromSortedKeys(n, slices.Clone(edges))
}

// fromSortedKeys assembles the CSR arrays from a sorted, deduplicated key
// list in two counting passes, taking ownership of the key slice. Because
// keys are sorted lexicographically by (u, v), filling each row's smaller
// neighbors first (pass A: row v gains u < v) and larger neighbors second
// (pass B: row u gains v > u) yields fully sorted rows with no per-row
// sort.
func fromSortedKeys(n int, keys []EdgeKey) *Graph {
	g := &Graph{n: n, m: len(keys), offsets: make([]int32, n+1), keys: keys}
	for _, k := range keys {
		u, v := k.Nodes()
		if u < 0 || int(v) >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at node %d", u))
		}
		g.offsets[u+1]++
		g.offsets[v+1]++
	}
	for i := 0; i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	g.neighbors = make([]NodeID, 2*len(keys))
	cursor := make([]int32, n)
	copy(cursor, g.offsets[:n])
	for _, k := range keys {
		u, v := k.Nodes()
		g.neighbors[cursor[v]] = u
		cursor[v]++
	}
	for _, k := range keys {
		u, v := k.Nodes()
		g.neighbors[cursor[u]] = v
		cursor[u]++
	}
	return g
}

// N returns the size of the node-id space.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v.
func (g *Graph) Degree(v NodeID) int { return int(g.offsets[v+1] - g.offsets[v]) }

// CumDegree returns the sum of degrees of nodes [0, v) — the CSR offset
// of v, an O(1) lookup with CumDegree(N()) == 2·M(). The clairvoyant
// adversary carves its per-node rows at these offsets.
func (g *Graph) CumDegree(v int) int { return int(g.offsets[v]) }

// MaxDegree returns the maximum degree over all nodes (0 for edgeless).
func (g *Graph) MaxDegree() int {
	max := int32(0)
	for v := 0; v < g.n; v++ {
		if d := g.offsets[v+1] - g.offsets[v]; d > max {
			max = d
		}
	}
	return int(max)
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's arena and must not be modified.
//
//dynlint:view
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge; binary search over the sorted
// adjacency list of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	a, target := g.Neighbors(u), v
	if b := g.Neighbors(v); len(b) < len(a) {
		a, target = b, u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= target })
	return i < len(a) && a[i] == target
}

// EdgeKeys returns the graph's edge set as a strictly ascending edge-key
// slice without copying. The slice aliases graph-owned storage and must
// not be modified; for pooled graphs built by a DynAdj it shares the
// arena's lifetime (see DynAdj.Graph). Diffing the edge sets of two
// graphs is a linear merge of their EdgeKeys views (DiffSortedKeys).
//
//dynlint:loan
//dynlint:view
//dynlint:sorted
func (g *Graph) EdgeKeys() []EdgeKey { return g.keys }

// Edges returns all edges in canonical (sorted) key order, as a fresh
// slice the caller owns.
func (g *Graph) Edges() []EdgeKey {
	out := make([]EdgeKey, 0, g.m)
	return g.AppendEdges(out)
}

// AppendEdges appends all edges in canonical key order to dst and returns
// it, letting round-loop callers reuse one buffer.
func (g *Graph) AppendEdges(dst []EdgeKey) []EdgeKey {
	return append(dst, g.keys...)
}

// EachEdge calls fn for every edge with u < v, in canonical order.
func (g *Graph) EachEdge(fn func(u, v NodeID)) {
	for _, k := range g.keys {
		u, v := k.Nodes()
		fn(u, v)
	}
}

// Clone returns a deep copy of g, owning all of its storage — the escape
// hatch for retaining a pooled DynAdj graph beyond its arena lifetime.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n:         g.n,
		m:         g.m,
		offsets:   slices.Clone(g.offsets),
		neighbors: slices.Clone(g.neighbors),
		keys:      slices.Clone(g.keys),
	}
}

// Equal reports whether g and h have identical node spaces and edge sets.
// The sorted key list is canonical, so equality is one slice comparison.
func (g *Graph) Equal(h *Graph) bool {
	return g.n == h.n && g.m == h.m && slices.Equal(g.keys, h.keys)
}

// String renders a compact description, e.g. "G(n=5, m=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("G(n=%d, m=%d)", g.n, g.m)
}

// DebugString renders the full adjacency structure, one node per line.
// Intended for test failure output on small graphs.
func (g *Graph) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph n=%d m=%d\n", g.n, g.m)
	for u := 0; u < g.n; u++ {
		row := g.Neighbors(NodeID(u))
		if len(row) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %d:", u)
		for _, v := range row {
			fmt.Fprintf(&sb, " %d", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
