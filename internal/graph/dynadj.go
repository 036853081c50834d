package graph

import (
	"fmt"
	"sort"
)

// DynAdj is the engine-side mutable adjacency structure of the sparse
// round plane: per-node sorted neighbor rows maintained under the same
// sorted edge diffs a Patcher consumes, but in O(Σ deg(touched)) per
// Apply instead of the Patcher's O(n + m) offset-shift pass. It trades
// the CSR's shared arena (and therefore CumDegree/EdgeKeys) for strictly
// change-proportional updates: the engine walks rows and degrees of the
// active set only, and a full CSR Graph is materialized lazily — via a
// Patcher — only when an observer asks for one.
//
// Apply enforces the same delta contract as Patcher.Apply (strictly
// ascending canonical keys, adds absent, removes present, endpoints in
// the universe) and panics on violations, so a diverged topology source
// is caught at the round it diverges even when no graph is ever
// materialized.
type DynAdj struct {
	n    int
	m    int
	rows [][]NodeID
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
// DynAdj-owned storage, is invalidated by the next Apply touching v, and
// must not be modified.
func (a *DynAdj) Neighbors(v NodeID) []NodeID { return a.rows[v] }

// insert adds u to v's sorted row, panicking if already present.
func (a *DynAdj) insert(v, u NodeID) {
	row := a.rows[v]
	i := sort.Search(len(row), func(i int) bool { return row[i] >= u })
	if i < len(row) && row[i] == u {
		panic(fmt.Sprintf("graph: DynAdj.Apply add of present edge {%d,%d}", min(u, v), max(u, v)))
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
		panic(fmt.Sprintf("graph: DynAdj.Apply remove of absent edge {%d,%d}", min(u, v), max(u, v)))
	}
	copy(row[i:], row[i+1:])
	a.rows[v] = row[:len(row)-1]
}

// Apply folds one sorted edge diff into the adjacency. adds and removes
// must be strictly ascending canonical edge keys with endpoints inside
// the universe; every added edge must be absent and every removed edge
// present. Cost is O(Σ deg(endpoint)) over the diff's endpoints — nothing
// scales with n or m — and zero steady-state allocations once rows have
// grown to their working capacity.
func (a *DynAdj) Apply(adds, removes []EdgeKey) {
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
		a.insert(u, v)
		a.insert(v, u)
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
		a.remove(u, v)
		a.remove(v, u)
	}
	a.m += len(adds) - len(removes)
}
