package problems

import (
	"fmt"

	"dynlocal/internal/graph"
)

// Tracker incrementally maintains the violation set of one problem
// component over a mutating graph and output vector, so a round with k
// changes costs O(k·Δ) updates instead of a full CheckFull rescan of the
// graph. The verify package feeds it the edge deltas of the windowed
// graphs (G^∩T for packing, G^∪T for covering) and the output deltas of
// the algorithm.
//
// The contract mirrors CheckFull filtered through the T-dynamic checker's
// Bot handling: Violations returns, in exactly CheckFull's order (unary
// violations by ascending node, then pairwise violations by ascending edge
// key), the violations CheckFull(g, out, nodes) would report among the
// activated nodes, minus the reports for nodes whose output is Bot
// (undecided nodes are accounted separately by the checker).
//
// Event semantics:
//
//   - Activate(v): v joins the checked node set (V^∩T in the T-dynamic
//     problem). Nodes never deactivate — the paper's wake-ups are monotone
//     and the window start only advances.
//   - EdgeAdded/EdgeRemoved: the tracked graph gained/lost edge {u, v}.
//     Adding a present edge or removing an absent one panics.
//   - OutputChanged(v, val): node v's output is now val. Outputs start at
//     Bot. Changes may be reported in any order within a round; the state
//     converges once every changed node has been reported.
//
// All state updates are O(Δ) in the degree of the touched node;
// Violations is O(1) when the violation set is empty and
// O(V + sort(conflicts)) otherwise.
type Tracker interface {
	Activate(v graph.NodeID)
	EdgeAdded(u, v graph.NodeID)
	EdgeRemoved(u, v graph.NodeID)
	OutputChanged(v graph.NodeID, val Value)
	Violations() []Violation
}

// nodeFlags is a boolean-per-node violation set with a popcount, so the
// common all-clear case is a single comparison at report time.
type nodeFlags struct {
	flag  []bool
	count int
}

func newNodeFlags(n int) nodeFlags { return nodeFlags{flag: make([]bool, n)} }

func (f *nodeFlags) set(v graph.NodeID, bad bool) {
	if f.flag[v] == bad {
		return
	}
	f.flag[v] = bad
	if bad {
		f.count++
	} else {
		f.count--
	}
}

// --- Independent set (packing M_P) ---------------------------------------

type independentSetTracker struct {
	vals      []Value
	active    []bool
	adj       *graph.DynAdj
	invalid   nodeFlags // active nodes with out-of-domain values
	conflicts graph.EdgeTable[struct{}]
	scratch   []graph.EdgeKey // sorted conflicts, and their sort buffer
	sortTmp   []graph.EdgeKey
}

// NewTracker returns the incremental checker for M_P.
func (IndependentSet) NewTracker(n int) Tracker {
	return &independentSetTracker{
		vals:    make([]Value, n),
		active:  make([]bool, n),
		adj:     graph.NewDynAdj(n),
		invalid: newNodeFlags(n),
	}
}

func (t *independentSetTracker) evalUnary(v graph.NodeID) {
	val := t.vals[v]
	t.invalid.set(v, t.active[v] && val != Bot && val != InMIS && val != Dominated)
}

func (t *independentSetTracker) evalPair(u, v graph.NodeID) {
	k := graph.MakeEdgeKey(u, v)
	if t.active[u] && t.active[v] && t.vals[u] == InMIS && t.vals[v] == InMIS {
		t.conflicts.Put(k, struct{}{})
	} else {
		t.conflicts.Delete(k)
	}
}

func (t *independentSetTracker) Activate(v graph.NodeID) {
	t.active[v] = true
	t.evalUnary(v)
	for _, u := range t.adj.Neighbors(v) {
		t.evalPair(u, v)
	}
}

func (t *independentSetTracker) EdgeAdded(u, v graph.NodeID) {
	t.adj.AddEdge(u, v)
	t.evalPair(u, v)
}

func (t *independentSetTracker) EdgeRemoved(u, v graph.NodeID) {
	t.adj.RemoveEdge(u, v)
	t.conflicts.Delete(graph.MakeEdgeKey(u, v))
}

func (t *independentSetTracker) OutputChanged(v graph.NodeID, val Value) {
	t.vals[v] = val
	t.evalUnary(v)
	for _, u := range t.adj.Neighbors(v) {
		t.evalPair(u, v)
	}
}

func (t *independentSetTracker) Violations() []Violation {
	if t.invalid.count == 0 && t.conflicts.Len() == 0 {
		return nil
	}
	var bad []Violation
	if t.invalid.count > 0 {
		for v, f := range t.invalid.flag {
			if f {
				bad = append(bad, Violation{Node: graph.NodeID(v), Peer: NoPeer,
					Reason: fmt.Sprintf("invalid MIS value %d", t.vals[v])})
			}
		}
	}
	t.scratch, t.sortTmp = t.conflicts.AppendSortedKeys(t.scratch[:0], t.sortTmp)
	for _, k := range t.scratch {
		u, v := k.Nodes()
		bad = append(bad, Violation{Node: u, Peer: v, Reason: "adjacent MIS nodes"})
	}
	return bad
}

// --- Dominating set (covering M_C) ---------------------------------------

type dominatingSetTracker struct {
	vals    []Value
	active  []bool
	adj     *graph.DynAdj
	misNbrs []int32 // neighbors with value InMIS, counted over all nodes
	flags   nodeFlags
}

// NewTracker returns the incremental checker for M_C.
func (DominatingSet) NewTracker(n int) Tracker {
	return &dominatingSetTracker{
		vals:    make([]Value, n),
		active:  make([]bool, n),
		adj:     graph.NewDynAdj(n),
		misNbrs: make([]int32, n),
		flags:   newNodeFlags(n),
	}
}

func (t *dominatingSetTracker) eval(v graph.NodeID) {
	if !t.active[v] {
		return
	}
	switch t.vals[v] {
	case Bot, InMIS:
		t.flags.set(v, false)
	case Dominated:
		t.flags.set(v, t.misNbrs[v] == 0)
	default:
		t.flags.set(v, true)
	}
}

func (t *dominatingSetTracker) Activate(v graph.NodeID) {
	t.active[v] = true
	t.eval(v)
}

func (t *dominatingSetTracker) EdgeAdded(u, v graph.NodeID) {
	t.adj.AddEdge(u, v)
	if t.vals[u] == InMIS {
		t.misNbrs[v]++
		t.eval(v)
	}
	if t.vals[v] == InMIS {
		t.misNbrs[u]++
		t.eval(u)
	}
}

func (t *dominatingSetTracker) EdgeRemoved(u, v graph.NodeID) {
	t.adj.RemoveEdge(u, v)
	if t.vals[u] == InMIS {
		t.misNbrs[v]--
		t.eval(v)
	}
	if t.vals[v] == InMIS {
		t.misNbrs[u]--
		t.eval(u)
	}
}

func (t *dominatingSetTracker) OutputChanged(v graph.NodeID, val Value) {
	was, is := t.vals[v] == InMIS, val == InMIS
	t.vals[v] = val
	if was != is {
		d := int32(-1)
		if is {
			d = 1
		}
		for _, u := range t.adj.Neighbors(v) {
			t.misNbrs[u] += d
			t.eval(u)
		}
	}
	t.eval(v)
}

func (t *dominatingSetTracker) Violations() []Violation {
	if t.flags.count == 0 {
		return nil
	}
	var bad []Violation
	for v, f := range t.flags.flag {
		if !f {
			continue
		}
		switch t.vals[v] {
		case Dominated:
			bad = append(bad, Violation{Node: graph.NodeID(v), Peer: NoPeer,
				Reason: "dominated without MIS neighbor"})
		default:
			bad = append(bad, Violation{Node: graph.NodeID(v), Peer: NoPeer,
				Reason: fmt.Sprintf("invalid MIS value %d", t.vals[v])})
		}
	}
	return bad
}

// --- Proper coloring (packing C_P) ---------------------------------------

type properColoringTracker struct {
	vals      []Value
	active    []bool
	adj       *graph.DynAdj
	invalid   nodeFlags // active nodes with negative colors
	conflicts graph.EdgeTable[struct{}]
	scratch   []graph.EdgeKey // sorted conflicts, and their sort buffer
	sortTmp   []graph.EdgeKey
}

// NewTracker returns the incremental checker for C_P.
func (ProperColoring) NewTracker(n int) Tracker {
	return &properColoringTracker{
		vals:    make([]Value, n),
		active:  make([]bool, n),
		adj:     graph.NewDynAdj(n),
		invalid: newNodeFlags(n),
	}
}

func (t *properColoringTracker) evalPair(u, v graph.NodeID) {
	k := graph.MakeEdgeKey(u, v)
	if t.active[u] && t.active[v] && t.vals[u] != Bot && t.vals[u] == t.vals[v] {
		t.conflicts.Put(k, struct{}{})
	} else {
		t.conflicts.Delete(k)
	}
}

func (t *properColoringTracker) Activate(v graph.NodeID) {
	t.active[v] = true
	t.invalid.set(v, t.vals[v] < 0)
	for _, u := range t.adj.Neighbors(v) {
		t.evalPair(u, v)
	}
}

func (t *properColoringTracker) EdgeAdded(u, v graph.NodeID) {
	t.adj.AddEdge(u, v)
	t.evalPair(u, v)
}

func (t *properColoringTracker) EdgeRemoved(u, v graph.NodeID) {
	t.adj.RemoveEdge(u, v)
	t.conflicts.Delete(graph.MakeEdgeKey(u, v))
}

func (t *properColoringTracker) OutputChanged(v graph.NodeID, val Value) {
	t.vals[v] = val
	if t.active[v] {
		t.invalid.set(v, val < 0)
	}
	for _, u := range t.adj.Neighbors(v) {
		t.evalPair(u, v)
	}
}

func (t *properColoringTracker) Violations() []Violation {
	if t.invalid.count == 0 && t.conflicts.Len() == 0 {
		return nil
	}
	var bad []Violation
	if t.invalid.count > 0 {
		for v, f := range t.invalid.flag {
			if f {
				bad = append(bad, Violation{Node: graph.NodeID(v), Peer: NoPeer,
					Reason: fmt.Sprintf("invalid color %d", t.vals[v])})
			}
		}
	}
	t.scratch, t.sortTmp = t.conflicts.AppendSortedKeys(t.scratch[:0], t.sortTmp)
	for _, k := range t.scratch {
		u, v := k.Nodes()
		bad = append(bad, Violation{Node: u, Peer: v,
			Reason: fmt.Sprintf("conflict: both colored %d", t.vals[u])})
	}
	return bad
}

// --- Degree range (covering C_C) -----------------------------------------

type degreeRangeTracker struct {
	vals   []Value
	active []bool
	deg    []int32
	flags  nodeFlags
}

// NewTracker returns the incremental checker for C_C.
func (DegreeRange) NewTracker(n int) Tracker {
	return &degreeRangeTracker{
		vals:   make([]Value, n),
		active: make([]bool, n),
		deg:    make([]int32, n),
		flags:  newNodeFlags(n),
	}
}

func (t *degreeRangeTracker) eval(v graph.NodeID) {
	if !t.active[v] {
		return
	}
	c := t.vals[v]
	t.flags.set(v, c != Bot && (c < 1 || c > Value(t.deg[v]+1)))
}

func (t *degreeRangeTracker) Activate(v graph.NodeID) {
	t.active[v] = true
	t.eval(v)
}

func (t *degreeRangeTracker) EdgeAdded(u, v graph.NodeID) {
	t.deg[u]++
	t.deg[v]++
	t.eval(u)
	t.eval(v)
}

func (t *degreeRangeTracker) EdgeRemoved(u, v graph.NodeID) {
	t.deg[u]--
	t.deg[v]--
	t.eval(u)
	t.eval(v)
}

func (t *degreeRangeTracker) OutputChanged(v graph.NodeID, val Value) {
	t.vals[v] = val
	t.eval(v)
}

func (t *degreeRangeTracker) Violations() []Violation {
	if t.flags.count == 0 {
		return nil
	}
	var bad []Violation
	for v, f := range t.flags.flag {
		if f {
			bad = append(bad, Violation{Node: graph.NodeID(v), Peer: NoPeer,
				Reason: fmt.Sprintf("color %d outside {1,…,%d}", t.vals[v], t.deg[v]+1)})
		}
	}
	return bad
}
