package graph

import (
	"fmt"
	"slices"
	"sort"
)

// DynAdj is the mutable adjacency structure of a round loop: per-node
// sorted neighbor rows maintained under sorted edge diffs in
// O(Σ deg(touched)) per Apply — nothing scales with n or m. The engine
// walks rows and degrees of the active set only, and a CSR Graph is built
// from the rows (Graph) only when an observer asks for one.
//
// Apply refuses any diff that breaks the edge-diff contract (CheckDiff)
// with an error and no change, so a diverged topology source is caught
// at the round it diverges even when no graph is ever built.
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

// Apply folds one sorted edge diff into the adjacency after CheckDiff
// has accepted the whole diff against the rows, so a refused diff
// leaves the adjacency unchanged. Cost is O(Σ deg(endpoint)) over the
// diff's endpoints, and zero steady-state allocations once rows have
// grown to their working capacity.
//
//dynlint:sorted adds removes
func (a *DynAdj) Apply(adds, removes []EdgeKey) error {
	if err := CheckDiff(a.n, adds, removes, a.Has); err != nil {
		return err
	}
	for _, k := range adds {
		u, v := k.Nodes()
		a.AddEdge(u, v)
	}
	for _, k := range removes {
		u, v := k.Nodes()
		a.RemoveEdge(u, v)
	}
	return nil
}

// Has reports whether the canonical in-universe edge k is present.
func (a *DynAdj) Has(k EdgeKey) bool {
	u, v := k.Nodes()
	_, found := slices.BinarySearch(a.rows[u], v)
	return found
}

// DiffKind names the rule of the edge-diff contract a diff breaks.
type DiffKind uint8

// The rules, in the order CheckDiff checks them.
const (
	DiffUnsorted     DiffKind = iota + 1 // a key not above the one before it
	DiffNotCanonical                     // a key {u,v} with u >= v
	DiffOutside                          // an endpoint outside [0,n)
	DiffBoth                             // a key in both lists
	DiffPresentAdd                       // an added edge present before the round
	DiffAbsentRemove                     // a removed edge absent before the round
)

// DiffError is CheckDiff's verdict on a refused diff: the rule, the
// first key breaking it, whether a list-level fault lies in removes, and
// the universe size. Callers prefix it with their site and round.
type DiffError struct {
	Kind    DiffKind
	Key     EdgeKey
	Removes bool
	N       int
}

func (e *DiffError) Error() string {
	list := "adds"
	if e.Removes {
		list = "removes"
	}
	switch e.Kind {
	case DiffUnsorted:
		return fmt.Sprintf("%s not strictly ascending at %v", list, e.Key)
	case DiffNotCanonical:
		return fmt.Sprintf("%s key %v, which is not a canonical edge", list, e.Key)
	case DiffOutside:
		return fmt.Sprintf("%s edge %v outside universe [0,%d)", list, e.Key, e.N)
	case DiffBoth:
		return fmt.Sprintf("lists edge %v as both added and removed", e.Key)
	case DiffPresentAdd:
		return fmt.Sprintf("adds edge %v, which is present", e.Key)
	}
	return fmt.Sprintf("removes edge %v, which is absent", e.Key)
}

// CheckDiff is the one check of the edge-diff contract, run by every
// entry point that takes a caller's round diff. It checks each list,
// adds first, for strictly ascending canonical keys {u,v} with
// u < v < n; then the lists for disjointness (CommonKey); then every
// added edge absent and every removed edge present in the edge set
// before the round, which has describes (called only on keys that passed
// the list checks; nil is the empty set, so a whole edge list checks as
// a diff from the empty graph). It returns the first violation and
// allocates nothing on an accepted diff.
func CheckDiff(n int, adds, removes []EdgeKey, has func(EdgeKey) bool) error {
	for i, keys := range [2][]EdgeKey{adds, removes} {
		for j, k := range keys {
			u, v := uint64(k)>>32, uint64(k)&0xffffffff
			switch {
			case j > 0 && k <= keys[j-1]:
				return &DiffError{Kind: DiffUnsorted, Key: k, Removes: i == 1}
			case u >= v:
				return &DiffError{Kind: DiffNotCanonical, Key: k, Removes: i == 1}
			case v >= uint64(n):
				return &DiffError{Kind: DiffOutside, Key: k, Removes: i == 1, N: n}
			}
		}
	}
	if k, ok := CommonKey(adds, removes); ok {
		return &DiffError{Kind: DiffBoth, Key: k}
	}
	for _, k := range adds {
		if has != nil && has(k) {
			return &DiffError{Kind: DiffPresentAdd, Key: k}
		}
	}
	for _, k := range removes {
		if has == nil || !has(k) {
			return &DiffError{Kind: DiffAbsentRemove, Key: k}
		}
	}
	return nil
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
