package graph

import (
	"fmt"
	"sort"
)

// DynAdj is the mutable adjacency structure of a round loop: per-node
// sorted neighbor rows maintained under sorted edge diffs in
// O(Σ deg(touched)) per Apply — nothing scales with n or m. The engine
// walks rows and degrees of the active set only, and a CSR Graph is built
// from the rows (Graph) only when an observer asks for one.
//
// Apply enforces the delta contract (strictly ascending canonical keys,
// adds and removes disjoint, adds absent, removes present, endpoints in
// the universe) and panics on violations, so a diverged topology source
// is caught at the round it diverges even when no graph is ever built.
type DynAdj struct {
	n    int
	m    int
	rows [][]NodeID

	// Graph's storage: two arenas filled in turn, and the last build (nil
	// once an edge change has made it stale).
	built  *Graph
	flip   int
	arenas [2]csrArena
}

// csrArena is one generation of DynAdj-owned graph storage: the CSR
// arrays plus the sorted key list, and a reusable Graph header pointing
// at them.
type csrArena struct {
	g         Graph
	offsets   []int32
	neighbors []NodeID
	keys      []EdgeKey
}

// NewDynAdj returns an empty dynamic adjacency over an n-node universe.
func NewDynAdj(n int) *DynAdj {
	return &DynAdj{n: n, rows: make([][]NodeID, n)}
}

// N returns the node-universe size.
func (a *DynAdj) N() int { return a.n }

// M returns the current number of edges.
func (a *DynAdj) M() int { return a.m }

// Degree returns the current degree of v.
func (a *DynAdj) Degree(v NodeID) int { return len(a.rows[v]) }

// Neighbors returns the sorted adjacency row of v. The slice aliases
// DynAdj-owned storage, is invalidated by the next change touching v, and
// must not be modified.
func (a *DynAdj) Neighbors(v NodeID) []NodeID { return a.rows[v] }

// AddEdge inserts the single edge {u, v}, panicking if it is present.
func (a *DynAdj) AddEdge(u, v NodeID) {
	a.insert(u, v)
	a.insert(v, u)
	a.m++
	a.built = nil
}

// RemoveEdge deletes the single edge {u, v}, panicking if it is absent.
func (a *DynAdj) RemoveEdge(u, v NodeID) {
	a.remove(u, v)
	a.remove(v, u)
	a.m--
	a.built = nil
}

// insert adds u to v's sorted row, panicking if already present.
func (a *DynAdj) insert(v, u NodeID) {
	row := a.rows[v]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	if i < len(row) && row[i] == u {
		panic(fmt.Sprintf("graph: DynAdj add of present edge {%d,%d}", min(u, v), max(u, v)))
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = u
	a.rows[v] = row
}

// remove deletes u from v's sorted row, panicking if absent.
func (a *DynAdj) remove(v, u NodeID) {
	row := a.rows[v]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	if i >= len(row) || row[i] != u {
		panic(fmt.Sprintf("graph: DynAdj remove of absent edge {%d,%d}", min(u, v), max(u, v)))
	}
	copy(row[i:], row[i+1:])
	a.rows[v] = row[:len(row)-1]
}

// Apply folds one sorted edge diff into the adjacency. adds and removes
// must be strictly ascending canonical edge keys with endpoints inside
// the universe, and disjoint; every added edge must be absent and every
// removed edge present. Cost is O(Σ deg(endpoint)) over the diff's endpoints, and zero
// steady-state allocations once rows have grown to their working
// capacity.
//
//dynlint:sorted adds removes
func (a *DynAdj) Apply(adds, removes []EdgeKey) {
	if k, ok := CommonKey(adds, removes); ok {
		panic(fmt.Sprintf("graph: DynAdj.Apply lists edge %s as both added and removed", k))
	}
	var last EdgeKey
	for i, k := range adds {
		if i > 0 && k <= last {
			panic("graph: DynAdj.Apply adds not strictly ascending")
		}
		last = k
		u, v := k.Nodes()
		if u < 0 || u >= v || int(v) >= a.n {
			panic(fmt.Sprintf("graph: DynAdj.Apply add %s outside universe [0,%d)", k, a.n))
		}
		a.AddEdge(u, v)
	}
	for i, k := range removes {
		if i > 0 && k <= last {
			panic("graph: DynAdj.Apply removes not strictly ascending")
		}
		last = k
		u, v := k.Nodes()
		if u < 0 || u >= v || int(v) >= a.n {
			panic(fmt.Sprintf("graph: DynAdj.Apply remove %s outside universe [0,%d)", k, a.n))
		}
		a.RemoveEdge(u, v)
	}
}

// CommonKey returns the smallest key in both of two strictly ascending
// lists, in one merge walk: O(len(a) + len(b)). An edge diff whose adds
// and removes share a key is no diff of two graphs — an absent edge in
// both would pass an add-then-remove fold while no round held it — so
// every consumer of a caller's diff refuses one.
//
//dynlint:sorted a b
func CommonKey(a, b []EdgeKey) (EdgeKey, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i], true
		}
	}
	return 0, false
}

// Graph returns the current topology as a CSR graph built straight from
// the rows in one pass: the offsets are prefix sums of the row lengths,
// the neighbor arena is the rows in turn, and the key list is each row's
// entries above its node (rows are sorted, so the keys come out
// ascending). A build costs O(n + m); with no edge change since the last
// call, the same graph is returned at O(1).
//
// The graph aliases one of two DynAdj-owned arenas filled in turn: it
// stays valid through the next build and is recycled by the one after
// that, so callers may hold the current and the previous graph and must
// Clone anything retained longer. Builds allocate nothing once the
// arenas have grown to the working edge count.
//
//dynlint:loan
func (a *DynAdj) Graph() *Graph {
	if a.built != nil {
		return a.built
	}
	ar := &a.arenas[a.flip]
	a.flip ^= 1
	offs := resize(ar.offsets, a.n+1)
	nbrs := resize(ar.neighbors, 2*a.m)
	keys := resize(ar.keys, a.m)
	o, k := 0, 0
	offs[0] = 0
	for v, row := range a.rows {
		for _, u := range row {
			nbrs[o] = u
			o++
			if u > NodeID(v) {
				keys[k] = EdgeKey(uint64(uint32(v))<<32 | uint64(uint32(u)))
				k++
			}
		}
		offs[v+1] = int32(o)
	}
	ar.offsets, ar.neighbors, ar.keys = offs, nbrs, keys
	ar.g = Graph{n: a.n, m: a.m, offsets: offs, neighbors: nbrs, keys: keys}
	a.built = &ar.g
	return a.built
}

// resize returns s with length k, reallocated with a quarter of slack
// when its capacity is short, so a fluctuating size settles on a fixed
// allocation.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		s = make([]T, k, k+k/4)
	}
	return s[:k]
}
