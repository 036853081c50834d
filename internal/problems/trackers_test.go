package problems

import (
	"reflect"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// trackerHarness drives a Tracker and, in parallel, a from-scratch
// CheckFull oracle over the same mutating graph and outputs.
type trackerHarness struct {
	n      int
	tr     Tracker
	check  func(g *graph.Graph, out []Value, nodes []graph.NodeID) []Violation
	edges  map[graph.EdgeKey]struct{}
	out    []Value
	active []graph.NodeID // ascending
	isAct  []bool
}

func newTrackerHarness(n int, tr Tracker,
	check func(*graph.Graph, []Value, []graph.NodeID) []Violation) *trackerHarness {
	return &trackerHarness{
		n: n, tr: tr, check: check,
		edges: make(map[graph.EdgeKey]struct{}),
		out:   make([]Value, n),
		isAct: make([]bool, n),
	}
}

func (h *trackerHarness) activate(v graph.NodeID) {
	if h.isAct[v] {
		return
	}
	h.isAct[v] = true
	h.active = nil
	for u := 0; u < h.n; u++ {
		if h.isAct[u] {
			h.active = append(h.active, graph.NodeID(u))
		}
	}
	h.tr.Activate(v)
}

func (h *trackerHarness) toggleEdge(u, v graph.NodeID) {
	k := graph.MakeEdgeKey(u, v)
	if _, ok := h.edges[k]; ok {
		delete(h.edges, k)
		h.tr.EdgeRemoved(u, v)
	} else {
		h.edges[k] = struct{}{}
		h.tr.EdgeAdded(u, v)
	}
}

func (h *trackerHarness) setOut(v graph.NodeID, val Value) {
	if h.out[v] == val {
		return
	}
	h.out[v] = val
	h.tr.OutputChanged(v, val)
}

// dropBot mirrors the T-dynamic checker's filtering of ⊥-node reports.
func dropBot(vs []Violation, out []Value) []Violation {
	var kept []Violation
	for _, v := range vs {
		if out[v.Node] != Bot {
			kept = append(kept, v)
		}
	}
	return kept
}

func (h *trackerHarness) verify(t *testing.T, step int) {
	t.Helper()
	keys := make([]graph.EdgeKey, 0, len(h.edges))
	for k := range h.edges {
		keys = append(keys, k)
	}
	g := graph.FromEdges(h.n, keys)
	want := dropBot(h.check(g, h.out, h.active), h.out)
	got := h.tr.Violations()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: tracker diverged from CheckFull\ngot  %v\nwant %v\ngraph %s\nout %v\nactive %v",
			step, got, want, g.DebugString(), h.out, h.active)
	}
}

// runTrackerFuzz drives random activation/edge/output events and checks
// tracker output against the CheckFull oracle after every event.
func runTrackerFuzz(t *testing.T, seed uint64, tr Tracker, vals []Value,
	check func(*graph.Graph, []Value, []graph.NodeID) []Violation) {
	t.Helper()
	const n = 14
	const steps = 600
	s := prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
	h := newTrackerHarness(n, tr, check)
	for step := 0; step < steps; step++ {
		switch s.Intn(10) {
		case 0, 1:
			h.activate(graph.NodeID(s.Intn(n)))
		case 2, 3, 4, 5:
			u := graph.NodeID(s.Intn(n))
			v := graph.NodeID(s.Intn(n))
			if u == v {
				continue
			}
			h.toggleEdge(u, v)
		default:
			h.setOut(graph.NodeID(s.Intn(n)), vals[s.Intn(len(vals))])
		}
		h.verify(t, step)
	}
}

func TestIndependentSetTrackerMatchesCheckFull(t *testing.T) {
	vals := []Value{Bot, InMIS, Dominated, 7, -3}
	runTrackerFuzz(t, 11, IndependentSet{}.NewTracker(14), vals,
		IndependentSet{}.CheckFull)
}

func TestDominatingSetTrackerMatchesCheckFull(t *testing.T) {
	vals := []Value{Bot, InMIS, Dominated, 7, -3}
	runTrackerFuzz(t, 12, DominatingSet{}.NewTracker(14), vals,
		DominatingSet{}.CheckFull)
}

func TestProperColoringTrackerMatchesCheckFull(t *testing.T) {
	vals := []Value{Bot, 1, 2, 3, -2}
	runTrackerFuzz(t, 13, ProperColoring{}.NewTracker(14), vals,
		ProperColoring{}.CheckFull)
}

func TestDegreeRangeTrackerMatchesCheckFull(t *testing.T) {
	vals := []Value{Bot, 1, 2, 3, 9, -2}
	runTrackerFuzz(t, 14, DegreeRange{}.NewTracker(14), vals,
		DegreeRange{}.CheckFull)
}

// TestTrackerActivationAfterEdges pins the ordering subtlety of the
// T-dynamic round loop: edge events for a round are delivered before the
// round's core arrivals, so a conflict edge between two nodes activated in
// the same round must still surface.
func TestTrackerActivationAfterEdges(t *testing.T) {
	tr := ProperColoring{}.NewTracker(4)
	tr.OutputChanged(0, 5)
	tr.OutputChanged(1, 5)
	tr.EdgeAdded(0, 1)
	if got := tr.Violations(); got != nil {
		t.Fatalf("violations before activation: %v", got)
	}
	tr.Activate(0)
	if got := tr.Violations(); got != nil {
		t.Fatalf("violations with one active endpoint: %v", got)
	}
	tr.Activate(1)
	got := tr.Violations()
	if len(got) != 1 || got[0].Node != 0 || got[0].Peer != 1 {
		t.Fatalf("conflict after activation = %v", got)
	}
}

// TestTrackerRejectsInexactEdgeEvents pins that the adjacency-keeping
// trackers treat a duplicate add or an absent removal as a diverged feed
// and panic, instead of tracking a multigraph.
func TestTrackerRejectsInexactEdgeEvents(t *testing.T) {
	mks := map[string]func() Tracker{
		"mis":      func() Tracker { return IndependentSet{}.NewTracker(4) },
		"domset":   func() Tracker { return DominatingSet{}.NewTracker(4) },
		"coloring": func() Tracker { return ProperColoring{}.NewTracker(4) },
	}
	for name, mk := range mks {
		for event, run := range map[string]func(Tracker){
			"add-present":   func(tr Tracker) { tr.EdgeAdded(1, 0) },
			"remove-absent": func(tr Tracker) { tr.EdgeRemoved(2, 3) },
		} {
			t.Run(name+"/"+event, func(t *testing.T) {
				tr := mk()
				tr.EdgeAdded(0, 1)
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				run(tr)
			})
		}
	}
}
