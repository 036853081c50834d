package dyngraph

import (
	"testing"
	"testing/quick"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

func wstream(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// graphFed drives a Window with full round graphs: each Observe diffs
// the graph's edge list against the previous round's with
// graph.DiffSortedKeys and hands the diff to ObserveEdgeDelta. The
// embedded Window serves every query.
type graphFed struct {
	*Window
	prev []graph.EdgeKey
}

func newGraphFed(t, n int) *graphFed { return &graphFed{Window: NewWindow(t, n)} }

// Observe advances the window to the next round with graph g.
func (f *graphFed) Observe(g *graph.Graph, wake []graph.NodeID) *Delta {
	adds, removes := graph.DiffSortedKeys(f.prev, g.EdgeKeys(), nil, nil)
	f.prev = append(f.prev[:0], g.EdgeKeys()...)
	return f.ObserveEdgeDelta(adds, removes, wake)
}

// directWindows computes G^∩T and G^∪T from first principles
// (Definition 2.1) given the full history of graphs (1-based rounds).
// Round 0 is the empty graph G_0 = (∅, ∅), so for r < T the intersection
// is empty and the union spans all rounds so far.
func directWindows(history []*graph.Graph, t int) (inter, union *graph.Graph) {
	r := len(history)
	n := history[0].N()
	fold := func(op func(g, h *graph.Graph) *graph.Graph, gs []*graph.Graph) *graph.Graph {
		acc := gs[0]
		for _, g := range gs[1:] {
			acc = op(acc, g)
		}
		return acc
	}
	r0 := r - t + 1
	if r0 < 1 {
		// Window reaches back to the empty round 0.
		return graph.Empty(n), fold(graph.Union, history)
	}
	windowGraphs := history[r0-1 : r]
	return fold(graph.Intersection, windowGraphs), fold(graph.Union, windowGraphs)
}

func TestWindowMatchesDefinitionDirectly(t *testing.T) {
	const n = 24
	const T = 4
	s := wstream(100)
	w := newGraphFed(T, n)
	var history []*graph.Graph
	for round := 1; round <= 20; round++ {
		g := graph.GNP(n, 0.12, s)
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		w.Observe(g, wake)
		history = append(history, g)
		wantInter, wantUnion := directWindows(history, T)
		if got := w.IntersectionGraph(); !got.Equal(wantInter) {
			t.Fatalf("round %d: intersection mismatch\ngot  %s\nwant %s",
				round, got.DebugString(), wantInter.DebugString())
		}
		if got := w.UnionGraph(); !got.Equal(wantUnion) {
			t.Fatalf("round %d: union mismatch\ngot  %s\nwant %s",
				round, got.DebugString(), wantUnion.DebugString())
		}
	}
}

func TestWindowMatchesDefinitionProperty(t *testing.T) {
	f := func(seed uint16, tRaw, nRaw uint8) bool {
		T := int(tRaw%7) + 1
		n := int(nRaw%12) + 4
		s := wstream(uint64(seed))
		w := newGraphFed(T, n)
		var history []*graph.Graph
		for round := 1; round <= 2*T+3; round++ {
			g := graph.GNP(n, 0.3, s)
			var wake []graph.NodeID
			if round == 1 {
				wake = allNodes(n)
			}
			w.Observe(g, wake)
			history = append(history, g)
			wantInter, wantUnion := directWindows(history, T)
			if !w.IntersectionGraph().Equal(wantInter) || !w.UnionGraph().Equal(wantUnion) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowMembershipQueries(t *testing.T) {
	w := newGraphFed(3, 4)
	e := func(u, v graph.NodeID) *graph.Graph {
		return graph.FromEdges(4, []graph.EdgeKey{graph.MakeEdgeKey(u, v)})
	}
	w.Observe(e(0, 1), allNodes(4))
	// Round 1 < T: window still contains the empty round 0, so the
	// intersection is empty while the union already has the edge.
	if w.InIntersection(0, 1) || !w.InUnion(0, 1) {
		t.Fatal("round 1 membership wrong")
	}
	w.Observe(e(1, 2), nil)
	// Round 2 < T: intersection still empty.
	if w.InIntersection(0, 1) || !w.InUnion(0, 1) {
		t.Fatal("round 2: {0,1} should be union-only")
	}
	if w.InIntersection(1, 2) || !w.InUnion(1, 2) {
		t.Fatal("round 2: {1,2} present 1 of 2 rounds")
	}
	w.Observe(e(1, 2), nil)
	w.Observe(e(1, 2), nil)
	// Round 4, window = {2,3,4}: {1,2} present in all -> intersection.
	if !w.InIntersection(1, 2) {
		t.Fatal("round 4: {1,2} should be in intersection")
	}
	if w.InUnion(0, 1) {
		t.Fatal("round 4: {0,1} expired from union")
	}
	if w.InIntersection(2, 2) || w.InUnion(3, 3) {
		t.Fatal("self loops must never be members")
	}
}

func TestWindowStreakBrokenByAbsence(t *testing.T) {
	w := newGraphFed(3, 3)
	edge := graph.FromEdges(3, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	empty := graph.Empty(3)
	w.Observe(edge, allNodes(3))
	w.Observe(empty, nil)
	w.Observe(edge, nil)
	// Present rounds 1 and 3, absent 2: union yes, intersection no.
	if w.InIntersection(0, 1) {
		t.Fatal("broken streak still in intersection")
	}
	if !w.InUnion(0, 1) {
		t.Fatal("recently present edge missing from union")
	}
	w.Observe(edge, nil)
	w.Observe(edge, nil)
	// Rounds 3,4,5 all present: back in intersection.
	if !w.InIntersection(0, 1) {
		t.Fatal("restored streak not in intersection")
	}
}

func TestWindowWakeTracking(t *testing.T) {
	const T = 3
	w := newGraphFed(T, 5)
	empty := graph.Empty(5)
	w.Observe(empty, []graph.NodeID{0, 1}) // round 1
	w.Observe(empty, []graph.NodeID{2})    // round 2
	w.Observe(empty, nil)                  // round 3
	// r0 = 1: core = nodes awake since round 1.
	core := w.CoreNodes()
	if len(core) != 2 || core[0] != 0 || core[1] != 1 {
		t.Fatalf("core at round 3 = %v", core)
	}
	w.Observe(empty, nil) // round 4, r0 = 2
	if !w.InCore(2) {
		t.Fatal("node 2 should join core at round 4")
	}
	if w.InCore(4) {
		t.Fatal("never-woken node in core")
	}
	if w.AwakeSince(2) != 2 || w.AwakeSince(4) != 0 {
		t.Fatal("AwakeSince wrong")
	}
}

func TestWindowRejectsSleepingEdges(t *testing.T) {
	w := newGraphFed(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for edge touching sleeping node")
		}
	}()
	w.Observe(graph.FromEdges(3, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}), []graph.NodeID{0, 1})
}

func TestWindowPurgeKeepsSemantics(t *testing.T) {
	// Run long enough to trigger several purges and verify no live edge is
	// lost and stale edges are dropped from the map.
	const n = 16
	const T = 3
	s := wstream(5)
	w := newGraphFed(T, n)
	var history []*graph.Graph
	for round := 1; round <= 40; round++ {
		g := graph.GNP(n, 0.1, s)
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		w.Observe(g, wake)
		history = append(history, g)
	}
	wantInter, wantUnion := directWindows(history, T)
	if !w.IntersectionGraph().Equal(wantInter) {
		t.Fatal("intersection wrong after purges")
	}
	if !w.UnionGraph().Equal(wantUnion) {
		t.Fatal("union wrong after purges")
	}
	if w.spans.Len() > 4*wantUnion.M()+4*T {
		t.Fatalf("span table not purged: %d entries for %d union edges", w.spans.Len(), wantUnion.M())
	}
}

func TestWindowStats(t *testing.T) {
	w := newGraphFed(2, 4)
	g := graph.FromEdges(4, []graph.EdgeKey{graph.MakeEdgeKey(0, 1), graph.MakeEdgeKey(2, 3)})
	w.Observe(g, allNodes(4))
	w.Observe(graph.FromEdges(4, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}), nil)
	st := w.Stats()
	if st.Round != 2 || st.UnionEdges != 2 || st.IntersectionEdges != 1 || st.CoreNodes != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if !w.Full() {
		t.Fatal("window should be full after T rounds")
	}
}

func TestNewWindowValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for T=0")
		}
	}()
	NewWindow(0, 5)
}

// deltaMirror folds Window deltas into running sets, to check that the
// emitted events reconstruct the windowed sets exactly.
type deltaMirror struct {
	inter map[graph.EdgeKey]bool
	union map[graph.EdgeKey]bool
	core  map[graph.NodeID]bool
}

func newDeltaMirror() *deltaMirror {
	return &deltaMirror{
		inter: make(map[graph.EdgeKey]bool),
		union: make(map[graph.EdgeKey]bool),
		core:  make(map[graph.NodeID]bool),
	}
}

func (m *deltaMirror) apply(t *testing.T, d *Delta) {
	t.Helper()
	for _, k := range d.InterAdded {
		if m.inter[k] {
			t.Fatalf("round %d: inter add of present edge %v", d.Round, k)
		}
		m.inter[k] = true
	}
	for _, k := range d.InterRemoved {
		if !m.inter[k] {
			t.Fatalf("round %d: inter remove of absent edge %v", d.Round, k)
		}
		delete(m.inter, k)
	}
	for _, k := range d.UnionAdded {
		if m.union[k] {
			t.Fatalf("round %d: union add of present edge %v", d.Round, k)
		}
		m.union[k] = true
	}
	for _, k := range d.UnionRemoved {
		if !m.union[k] {
			t.Fatalf("round %d: union remove of absent edge %v", d.Round, k)
		}
		delete(m.union, k)
	}
	for _, v := range d.CoreEntered {
		if m.core[v] {
			t.Fatalf("round %d: core enter of member %d", d.Round, v)
		}
		m.core[v] = true
	}
	if len(d.CoreLeft) != 0 {
		t.Fatalf("round %d: core shrank: %v", d.Round, d.CoreLeft)
	}
}

func (m *deltaMirror) check(t *testing.T, w *graphFed) {
	t.Helper()
	inter, union := w.IntersectionGraph(), w.UnionGraph()
	if inter.M() != len(m.inter) || union.M() != len(m.union) {
		t.Fatalf("round %d: delta sets |∩|=%d |∪|=%d, graphs |∩|=%d |∪|=%d",
			w.Round(), len(m.inter), len(m.union), inter.M(), union.M())
	}
	for k := range m.inter {
		u, v := k.Nodes()
		if !inter.HasEdge(u, v) {
			t.Fatalf("round %d: delta-set edge %v not in intersection graph", w.Round(), k)
		}
	}
	for k := range m.union {
		u, v := k.Nodes()
		if !union.HasEdge(u, v) {
			t.Fatalf("round %d: delta-set edge %v not in union graph", w.Round(), k)
		}
	}
	core := w.CoreNodes()
	if len(core) != len(m.core) {
		t.Fatalf("round %d: delta core size %d, CoreNodes %d", w.Round(), len(m.core), len(core))
	}
	for _, v := range core {
		if !m.core[v] {
			t.Fatalf("round %d: core node %d missing from delta set", w.Round(), v)
		}
	}
}

// TestWindowDeltasReconstructSets drives the window over a churn-style
// schedule with staggered wake-ups and checks that folding the emitted
// events reproduces the materialized window sets every round.
func TestWindowDeltasReconstructSets(t *testing.T) {
	for _, T := range []int{1, 2, 3, 5, 8} {
		const n = 24
		s := wstream(uint64(200 + T))
		w := newGraphFed(T, n)
		m := newDeltaMirror()
		awake := make([]bool, n)
		for round := 1; round <= 4*T+10; round++ {
			// Wake three nodes per round until all are awake.
			var wake []graph.NodeID
			for i := 0; i < 3; i++ {
				v := graph.NodeID((round-1)*3 + i)
				if int(v) < n {
					wake = append(wake, v)
					awake[v] = true
				}
			}
			// Random graph restricted to awake nodes.
			var keys []graph.EdgeKey
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if awake[u] && awake[v] && s.Intn(5) == 0 {
						keys = append(keys, graph.MakeEdgeKey(graph.NodeID(u), graph.NodeID(v)))
					}
				}
			}
			d := w.Observe(graph.FromSortedEdges(n, keys), wake)
			if d.Round != round {
				t.Fatalf("delta round = %d, want %d", d.Round, round)
			}
			m.apply(t, d)
			m.check(t, w)
		}
	}
}

// TestWindowDeltaSlicesSorted pins the documented ascending order of every
// delta slice.
func TestWindowDeltaSlicesSorted(t *testing.T) {
	const n = 20
	const T = 4
	s := wstream(99)
	w := newGraphFed(T, n)
	sortedKeys := func(ks []graph.EdgeKey) bool {
		for i := 1; i < len(ks); i++ {
			if ks[i-1] >= ks[i] {
				return false
			}
		}
		return true
	}
	for round := 1; round <= 16; round++ {
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		d := w.Observe(graph.GNP(n, 0.25, s), wake)
		for name, ks := range map[string][]graph.EdgeKey{
			"InterAdded": d.InterAdded, "InterRemoved": d.InterRemoved,
			"UnionAdded": d.UnionAdded, "UnionRemoved": d.UnionRemoved,
		} {
			if !sortedKeys(ks) {
				t.Fatalf("round %d: %s not strictly ascending: %v", round, name, ks)
			}
		}
		for i := 1; i < len(d.CoreEntered); i++ {
			if d.CoreEntered[i-1] >= d.CoreEntered[i] {
				t.Fatalf("round %d: CoreEntered not ascending: %v", round, d.CoreEntered)
			}
		}
	}
}

// BenchmarkWindowObserve times one ObserveEdgeDelta per op over a
// precomputed cycle of GNP round diffs.
func BenchmarkWindowObserve(b *testing.B) {
	const n = 2048
	s := wstream(1)
	graphs := make([]*graph.Graph, 8)
	for i := range graphs {
		graphs[i] = graph.GNP(n, 4.0/n, s)
	}
	// adds[i], removes[i] lead from graphs[i-1] (cyclically) to graphs[i].
	adds := make([][]graph.EdgeKey, len(graphs))
	removes := make([][]graph.EdgeKey, len(graphs))
	for i, g := range graphs {
		prev := graphs[(i+len(graphs)-1)%len(graphs)]
		adds[i], removes[i] = graph.DiffSortedKeys(prev.EdgeKeys(), g.EdgeKeys(), nil, nil)
	}
	w := NewWindow(12, n)
	w.ObserveEdgeDelta(graphs[0].EdgeKeys(), nil, allNodes(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := (i + 1) % len(graphs)
		w.ObserveEdgeDelta(adds[k], removes[k], nil)
	}
}

func BenchmarkWindowMaterialize(b *testing.B) {
	const n = 2048
	s := wstream(2)
	w := newGraphFed(12, n)
	for round := 0; round < 24; round++ {
		var wake []graph.NodeID
		if round == 0 {
			wake = allNodes(n)
		}
		w.Observe(graph.GNP(n, 4.0/n, s), wake)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.IntersectionGraph()
		_ = w.UnionGraph()
	}
}
