// Package verifytest is test support for the T-dynamic checker: a
// materializing reference oracle computed straight from Definition 2.1,
// sharing no code with dyngraph.Window, and a feed that turns hand-built
// round graphs into the engine.RoundDelta values TDynamic.Feed consumes.
package verifytest

import (
	"slices"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// Oracle is the materializing reference checker: every round it rebuilds
// G^∩T_r and G^∪T_r from the edge lists of the last T round graphs and
// re-runs the full CheckFull scans on V^∩T_r. verify.TDynamic must
// reproduce its reports bit for bit.
type Oracle struct {
	pc       problems.PC
	t, round int
	history  [][]graph.EdgeKey     // edge lists of the last t round graphs, oldest first
	count    map[graph.EdgeKey]int // how many of them hold each edge
	wake     []int                 // wake[v] = round v woke up, 0 if still asleep
}

// NewOracle creates a reference checker with window size t over n nodes.
func NewOracle(pc problems.PC, t, n int) *Oracle {
	return &Oracle{pc: pc, t: t, count: make(map[graph.EdgeKey]int), wake: make([]int, n)}
}

// Observe checks the next round; g is only read during the call.
func (o *Oracle) Observe(g *graph.Graph, wake []graph.NodeID, out []problems.Value) verify.TDynamicReport {
	o.round++
	for _, v := range wake {
		if o.wake[v] == 0 {
			o.wake[v] = o.round
		}
	}
	o.history = append(o.history, slices.Clone(g.EdgeKeys()))
	for _, k := range g.EdgeKeys() {
		o.count[k]++
	}
	if len(o.history) > o.t {
		for _, k := range o.history[0] {
			if o.count[k]--; o.count[k] == 0 {
				delete(o.count, k)
			}
		}
		o.history = o.history[1:]
	}
	// V^∩T_r: the nodes awake since the window start r0 = r-T+1. Round 0
	// has no awake node, so the set is empty while r0 < 1.
	rep := verify.TDynamicReport{Round: o.round}
	var core []graph.NodeID
	for v, w := range o.wake {
		if w != 0 && w <= o.round-o.t+1 {
			core = append(core, graph.NodeID(v))
			if out[v] == problems.Bot {
				rep.BotCore++
			}
		}
	}
	rep.CoreNodes = len(core)
	if len(core) > 0 {
		// An edge is in G^∪T_r if one of the window's t graphs holds it,
		// and in G^∩T_r if all of them do.
		var inter, union []graph.EdgeKey
		for k, c := range o.count {
			union = append(union, k)
			if c == o.t {
				inter = append(inter, k)
			}
		}
		rep.PackingViolations = dropBot(o.pc.P.CheckFull(graph.FromEdges(len(o.wake), inter), out, core), out)
		rep.CoverViolations = dropBot(o.pc.C.CheckFull(graph.FromEdges(len(o.wake), union), out, core), out)
	}
	return rep
}

// dropBot removes CheckFull's reports of ⊥ nodes, which BotCore counts.
func dropBot(vs []problems.Violation, out []problems.Value) []problems.Violation {
	vs = slices.DeleteFunc(vs, func(v problems.Violation) bool { return out[v.Node] == problems.Bot })
	if len(vs) == 0 {
		return nil
	}
	return vs
}

// GraphFeed derives round deltas from full round graphs and output
// snapshots. The zero value starts at round 0: no edges, every output ⊥.
type GraphFeed struct {
	round   int
	edges   []graph.EdgeKey
	prevOut []problems.Value
}

// Next returns the next round's delta: the sorted edge diff of g against
// the previous graph and the nodes whose output changed. The returned
// slices are fresh; out is referenced, not copied.
func (f *GraphFeed) Next(g *graph.Graph, wake []graph.NodeID, out []problems.Value) engine.RoundDelta {
	f.round++
	adds, removes := graph.DiffSortedKeys(f.edges, g.EdgeKeys(), nil, nil)
	f.edges = append(f.edges[:0], g.EdgeKeys()...)
	if f.prevOut == nil {
		f.prevOut = make([]problems.Value, len(out))
	}
	var changed []graph.NodeID
	for v, val := range out {
		if val != f.prevOut[v] {
			changed = append(changed, graph.NodeID(v))
		}
	}
	copy(f.prevOut, out)
	return engine.RoundDelta{Round: f.round, EdgeAdds: adds, EdgeRemoves: removes, Wake: wake, Changed: changed, Outputs: out}
}
