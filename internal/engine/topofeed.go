package engine

import (
	"slices"

	"dynlocal/internal/graph"
)

// topoFeed is the engine's lazy topology feed: observe folds each round's
// sorted edge diff into a pending net diff, and a CSR graph is built only
// when materialize is called (RoundInfo.Graph, base checkpoint records),
// so diff-only rounds never pay the patcher's O(n + m) merge. The
// pending net diff is bounded by the symmetric difference against the
// last materialized graph, i.e. O(m) however many rounds pass between
// materializations.
type topoFeed struct {
	p *graph.Patcher
	// Net edge diff since the last materialization, with exact add/remove
	// cancellation, plus sort scratch for materialize.
	pendAdd, pendRem map[graph.EdgeKey]struct{}
	matAdd, matRem   []graph.EdgeKey
}

func newTopoFeed(n int) *topoFeed {
	return &topoFeed{
		p:       graph.NewPatcher(n),
		pendAdd: make(map[graph.EdgeKey]struct{}),
		pendRem: make(map[graph.EdgeKey]struct{}),
	}
}

// observe folds one round's diff into the pending net diff: O(changes),
// no allocation once the maps have grown.
func (f *topoFeed) observe(adds, removes []graph.EdgeKey) {
	for _, k := range adds {
		if _, ok := f.pendRem[k]; ok {
			delete(f.pendRem, k)
		} else {
			f.pendAdd[k] = struct{}{}
		}
	}
	for _, k := range removes {
		if _, ok := f.pendAdd[k]; ok {
			delete(f.pendAdd, k)
		} else {
			f.pendRem[k] = struct{}{}
		}
	}
}

// materialize returns the current graph, folding any pending net diff
// into the pooled patcher first: O(1) with nothing pending, one O(n + m)
// merge otherwise. The graph follows the patcher lifetime — valid until
// the second-next materialization that actually patches; Clone to retain
// longer.
func (f *topoFeed) materialize() *graph.Graph {
	if len(f.pendAdd) == 0 && len(f.pendRem) == 0 {
		return f.p.Current()
	}
	f.matAdd = sortedKeys(f.pendAdd, f.matAdd[:0])
	f.matRem = sortedKeys(f.pendRem, f.matRem[:0])
	clear(f.pendAdd)
	clear(f.pendRem)
	return f.p.Apply(f.matAdd, f.matRem)
}

// sortedKeys appends a key set to dst in ascending order.
func sortedKeys(set map[graph.EdgeKey]struct{}, dst []graph.EdgeKey) []graph.EdgeKey {
	for k := range set {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
