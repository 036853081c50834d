// Package graphtest holds the graph package's reference oracles for
// tests. DiffModel is a map model of a round loop's edge set that checks
// each round's diff against the set before the round. It shares no code
// with graph.CheckDiff, so tests can hold the production checker and
// every diff producer to an independent reading of the contract.
// BallStatic is the exact comparison that graph.BallFingerprint
// approximates.
package graphtest

import (
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/graph"
)

// Fault is the first contract violation the model finds in a diff.
type Fault struct {
	// Rule is one of "unsorted", "not canonical", "outside universe",
	// "added and removed", "present add" and "absent remove".
	Rule string
	// List is "adds" or "removes": the list Key was found in.
	List string
	Key  graph.EdgeKey
}

func (f *Fault) String() string {
	u, v := uint32(f.Key>>32), uint32(f.Key)
	return fmt.Sprintf("%s: %s {%d,%d}", f.List, f.Rule, int32(u), int32(v))
}

// DiffModel is the edge set of a round loop over an n-node universe,
// kept in a map and advanced one exact diff per round.
type DiffModel struct {
	n       int
	round   int
	present map[graph.EdgeKey]bool
}

// NewDiffModel returns a model holding the empty graph G_0.
func NewDiffModel(n int) *DiffModel {
	return &DiffModel{n: n, present: make(map[graph.EdgeKey]bool)}
}

// Has reports whether k is in the current edge set.
func (m *DiffModel) Has(k graph.EdgeKey) bool { return m.present[k] }

// Len returns the number of edges in the current edge set.
func (m *DiffModel) Len() int { return len(m.present) }

// Keys returns the current edge set, ascending.
func (m *DiffModel) Keys() []graph.EdgeKey {
	keys := make([]graph.EdgeKey, 0, len(m.present))
	for k := range m.present {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Check returns the first way the diff breaks the contract against the
// current edge set, or nil. The rules are taken in the contract's order:
// each list (adds first) key by key for ascent, canonical form and the
// universe, then the two lists for a shared key (the smallest), then
// every add for absence and every remove for presence.
func (m *DiffModel) Check(adds, removes []graph.EdgeKey) *Fault {
	for _, l := range []struct {
		name string
		keys []graph.EdgeKey
	}{{"adds", adds}, {"removes", removes}} {
		for i, k := range l.keys {
			u, v := uint32(k>>32), uint32(k)
			switch {
			case i > 0 && !(l.keys[i-1] < k):
				return &Fault{"unsorted", l.name, k}
			case !(u < v):
				return &Fault{"not canonical", l.name, k}
			case int64(v) >= int64(m.n):
				return &Fault{"outside universe", l.name, k}
			}
		}
	}
	removed := make(map[graph.EdgeKey]bool, len(removes))
	for _, k := range removes {
		removed[k] = true
	}
	for _, k := range adds {
		if removed[k] {
			return &Fault{"added and removed", "adds", k}
		}
	}
	for _, k := range adds {
		if m.present[k] {
			return &Fault{"present add", "adds", k}
		}
	}
	for _, k := range removes {
		if !m.present[k] {
			return &Fault{"absent remove", "removes", k}
		}
	}
	return nil
}

// Step checks the next round's diff against the edge set before the
// round, failing tb with the round and the fault, and then folds it.
func (m *DiffModel) Step(tb testing.TB, adds, removes []graph.EdgeKey) {
	tb.Helper()
	m.round++
	if f := m.Check(adds, removes); f != nil {
		tb.Fatalf("round %d: %v", m.round, f)
	}
	for _, k := range adds {
		m.present[k] = true
	}
	for _, k := range removes {
		delete(m.present, k)
	}
}

// BallStatic reports whether the induced radius-ball around v is
// identical in graphs a and b: the same members and the same edges among
// them.
func BallStatic(a, b *graph.Graph, v graph.NodeID, radius int) bool {
	ma := graph.Ball(a, v, radius)
	if !slices.Equal(ma, graph.Ball(b, v, radius)) {
		return false
	}
	in := make(map[graph.NodeID]bool, len(ma))
	for _, u := range ma {
		in[u] = true
	}
	for _, u := range ma {
		for _, w := range a.Neighbors(u) {
			if u < w && in[w] && !b.HasEdge(u, w) {
				return false
			}
		}
		for _, w := range b.Neighbors(u) {
			if u < w && in[w] && !a.HasEdge(u, w) {
				return false
			}
		}
	}
	return true
}
