package adversary

import (
	"fmt"
	"slices"

	"dynlocal/internal/graph"
)

// LocalStatic wraps an inner adversary and freezes the topology around a
// set of protected nodes so that the locally-static guarantees (property
// B.2 and Theorem 1.1(2)) become testable: for each protected node v, the
// induced subgraph on its α-neighborhood G_l[N^α(v)] is identical in every
// round, while the inner adversary churns the rest of the graph freely.
//
// The freeze is implemented conservatively: let B = ∪_v Ball(Base, v, α).
// Every round, edges of the inner topology incident to B are discarded and
// replaced by the Base edges incident to B. Then (a) all paths of length
// ≤ α from a protected node run through frozen nodes, so N^α(v) is the
// Base ball every round, and (b) all edges induced on it are Base edges.
//
// The frozen zone never changes after round 1, so the wrapper's diff is
// the inner diff filtered to edges with no frozen endpoint, plus the
// frozen base edges once in round 1.
type LocalStatic struct {
	Inner     Adversary
	Base      *graph.Graph
	Protected []graph.NodeID
	Alpha     int

	frozen   []bool // node in B
	baseEdge []graph.EdgeKey
	addBuf   []graph.EdgeKey
	remBuf   []graph.EdgeKey
	started  bool
}

func (l *LocalStatic) init() {
	l.frozen = make([]bool, l.Base.N())
	for _, v := range l.Protected {
		for _, u := range graph.Ball(l.Base, v, l.Alpha) {
			l.frozen[u] = true
		}
	}
	for _, k := range l.Base.EdgeKeys() {
		u, v := k.Nodes()
		if l.frozen[u] || l.frozen[v] {
			l.baseEdge = append(l.baseEdge, k)
		}
	}
	l.started = true
}

// FrozenZone returns the node set whose incident edges are frozen.
func (l *LocalStatic) FrozenZone() []graph.NodeID {
	if !l.started {
		l.init()
	}
	var out []graph.NodeID
	for v, f := range l.frozen {
		if f {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Step implements Adversary.
func (l *LocalStatic) Step(v View) Step {
	if !l.started {
		l.init()
	}
	inner := l.Inner.Step(v)
	// Surviving inner diff entries: no frozen endpoint.
	adds := l.addBuf[:0]
	for _, k := range inner.EdgeAdds {
		u, w := k.Nodes()
		if !l.frozen[u] && !l.frozen[w] {
			adds = append(adds, k)
		}
	}
	removes := l.remBuf[:0]
	for _, k := range inner.EdgeRemoves {
		u, w := k.Nodes()
		if !l.frozen[u] && !l.frozen[w] {
			removes = append(removes, k)
		}
	}
	st := Step{Wake: inner.Wake}
	if v.Round() == 1 {
		// The frozen base edges appear once; they are disjoint from the
		// filtered inner edges (≥ 1 frozen endpoint vs none), so a sorted
		// merge of the two lists is the round-1 diff. The frozen zone must
		// be awake from the start: its topology is pinned from round 1.
		adds = mergeSortedKeys(adds, l.baseEdge)
		st.Wake = mergeWake(st.Wake, l.FrozenZone())
	}
	l.addBuf, l.remBuf = adds, removes
	st.EdgeAdds, st.EdgeRemoves = adds, removes
	return st
}

// mergeSortedKeys merges two sorted, disjoint key lists into one sorted
// list; a fresh slice is allocated whenever b is non-empty (only hit in
// round 1, merging the frozen base edges).
func mergeSortedKeys(a, b []graph.EdgeKey) []graph.EdgeKey {
	if len(b) == 0 {
		return a
	}
	out := make([]graph.EdgeKey, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func mergeWake(a, b []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(a)+len(b))
	var out []graph.NodeID
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// ConflictInjector wraps an inner adversary and, from round MinRound on,
// repeatedly inserts edges between pairs of nodes that currently share the
// same output — the targeted attack of experiment E2 ("any conflict between
// two nodes caused by a newly inserted edge is resolved within T rounds").
// It is ρ-oblivious for the engine's configured lag: pair selection uses
// only View.DelayedOutputs.
//
// Injected edges persist, so an unresolved conflict would eventually enter
// the intersection graph and be flagged by the T-dynamic checker. The
// played topology is the inner topology ∪ the injected edges; the wrapper
// mirrors the inner topology in a graph.DynAdj for the duplicate check,
// and its diff is the inner diff minus injected edges plus the round's
// new injections.
type ConflictInjector struct {
	Inner    Adversary
	Rate     int // injection attempts per round
	MinRound int
	Seed     uint64

	inner          *graph.DynAdj
	have           graph.EdgeTable[struct{}]
	fresh          []graph.EdgeKey // this round's injections
	addBuf, remBuf []graph.EdgeKey
	// Injections records (round, edge) for experiment bookkeeping.
	Injections []Injection
}

// Injection records one injected conflict edge.
type Injection struct {
	Round int
	Edge  graph.EdgeKey
}

// Step implements Adversary.
func (ci *ConflictInjector) Step(v View) Step {
	if ci.inner == nil {
		ci.inner = graph.NewDynAdj(v.N())
	}
	r := v.Round()
	inner := ci.Inner.Step(v)
	if err := ci.inner.Apply(inner.EdgeAdds, inner.EdgeRemoves); err != nil {
		panic(fmt.Sprintf("adversary: ConflictInjector round %d inner step %v", r, err))
	}
	ci.fresh = ci.fresh[:0]
	out := v.DelayedOutputs()
	if r >= ci.MinRound && out != nil {
		s := advStream(ci.Seed, r)
		// Group nodes by output value.
		groups := make(map[int64][]graph.NodeID)
		for id, val := range out {
			if val != 0 && v.Awake(graph.NodeID(id)) {
				groups[int64(val)] = append(groups[int64(val)], graph.NodeID(id))
			}
		}
		// Collect the conflictable group values in sorted order: candidates
		// is indexed by PRF draws below, so its order must not depend on
		// map iteration (this was a real same-seed nondeterminism bug).
		vals := make([]int64, 0, len(groups))
		for val, g := range groups {
			if len(g) >= 2 {
				vals = append(vals, val)
			}
		}
		slices.Sort(vals)
		candidates := make([][]graph.NodeID, 0, len(vals))
		for _, val := range vals {
			candidates = append(candidates, groups[val])
		}
		for i := 0; i < ci.Rate && len(candidates) > 0; i++ {
			g := candidates[s.Intn(len(candidates))]
			a := g[s.Intn(len(g))]
			b := g[s.Intn(len(g))]
			if a == b {
				continue
			}
			k := graph.MakeEdgeKey(a, b)
			if _, inInner := slices.BinarySearch(ci.inner.Neighbors(a), b); ci.have.Has(k) || inInner {
				continue
			}
			ci.have.Put(k, struct{}{})
			ci.fresh = append(ci.fresh, k)
			ci.Injections = append(ci.Injections, Injection{Round: r, Edge: k})
		}
	}
	// Inner changes to injected edges do not show; a fresh injection is
	// an add unless the inner adversary removed that edge this round, in
	// which case the edge simply stays.
	adds := ci.addBuf[:0]
	for _, k := range inner.EdgeAdds {
		if !ci.have.Has(k) {
			adds = append(adds, k)
		}
	}
	for _, k := range ci.fresh {
		if _, removed := slices.BinarySearch(inner.EdgeRemoves, k); !removed {
			adds = append(adds, k)
		}
	}
	slices.Sort(adds)
	removes := ci.remBuf[:0]
	for _, k := range inner.EdgeRemoves {
		if !ci.have.Has(k) {
			removes = append(removes, k)
		}
	}
	ci.addBuf, ci.remBuf = adds, removes
	return Step{Wake: inner.Wake, EdgeAdds: adds, EdgeRemoves: removes}
}
