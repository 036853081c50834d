package graph

import (
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/prf"
)

// togglePlan drives a deterministic random add/remove schedule over a
// node universe, tracking the exact edge set so every round's delta and
// expected graph are known.
type togglePlan struct {
	n       int
	present map[EdgeKey]bool
	keys    []EdgeKey
	s       *prf.Stream
}

func newTogglePlan(n int, seed uint64) *togglePlan {
	return &togglePlan{n: n, present: make(map[EdgeKey]bool), s: prf.NewStream(seed, 0, 0, prf.PurposeWorkload)}
}

// round toggles c random pairs and returns the sorted (adds, removes) and
// the full sorted edge list after the toggle.
func (p *togglePlan) round(c int) (adds, removes, all []EdgeKey) {
	seen := make(map[EdgeKey]bool)
	for i := 0; i < c; i++ {
		u := NodeID(p.s.Intn(p.n))
		v := NodeID(p.s.Intn(p.n))
		if u == v {
			continue
		}
		k := MakeEdgeKey(u, v)
		if seen[k] {
			continue
		}
		seen[k] = true
		if p.present[k] {
			delete(p.present, k)
			removes = append(removes, k)
		} else {
			p.present[k] = true
			adds = append(adds, k)
		}
	}
	slices.Sort(adds)
	slices.Sort(removes)
	p.keys = p.keys[:0]
	for k := range p.present {
		p.keys = append(p.keys, k)
	}
	slices.Sort(p.keys)
	return adds, removes, p.keys
}

// TestDynAdjTracksPatcher folds a long toggle schedule into a DynAdj
// through Apply and checks its rows, degrees and edge count every round
// against the FromSortedEdges rebuild of the plan's exact edge set.
func TestDynAdjTracksPatcher(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33, 200} {
		plan := newTogglePlan(n, uint64(300+n))
		adj := NewDynAdj(n)
		for round := 1; round <= 60; round++ {
			adds, removes, all := plan.round(1 + round%7)
			mustApply(t, adj, adds, removes)
			want := FromSortedEdges(n, all)
			if adj.M() != want.M() {
				t.Fatalf("n=%d round %d: m=%d want %d", n, round, adj.M(), want.M())
			}
			for v := NodeID(0); int(v) < n; v++ {
				if !slices.Equal(adj.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("n=%d round %d node %d: row %v want %v",
						n, round, v, adj.Neighbors(v), want.Neighbors(v))
				}
				if adj.Degree(v) != want.Degree(v) {
					t.Fatalf("n=%d round %d node %d: degree %d want %d",
						n, round, v, adj.Degree(v), want.Degree(v))
				}
			}
		}
	}
}

// TestPatcherMatchesRebuild checks the CSR graph DynAdj.Graph builds
// after every diff of a long toggle schedule against the FromSortedEdges
// rebuild of the plan's exact edge set: equality, the CSR rows and
// offsets, and the EdgeKeys view.
func TestPatcherMatchesRebuild(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33, 200} {
		plan := newTogglePlan(n, uint64(300+n))
		adj := NewDynAdj(n)
		if !adj.Graph().Equal(Empty(n)) {
			t.Fatalf("n=%d: fresh adjacency's graph not empty", n)
		}
		for round := 1; round <= 60; round++ {
			adds, removes, all := plan.round(1 + round%7)
			mustApply(t, adj, adds, removes)
			got := adj.Graph()
			want := FromSortedEdges(n, all)
			if !got.Equal(want) || got.M() != want.M() {
				t.Fatalf("n=%d round %d: built graph diverged\ngot  %s\nwant %s",
					n, round, got.DebugString(), want.DebugString())
			}
			for v := NodeID(0); int(v) < n; v++ {
				if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("n=%d round %d node %d: CSR row %v want %v",
						n, round, v, got.Neighbors(v), want.Neighbors(v))
				}
				if got.CumDegree(int(v)) != want.CumDegree(int(v)) {
					t.Fatalf("n=%d round %d node %d: CSR offset diverged", n, round, v)
				}
			}
			if !slices.Equal(got.EdgeKeys(), all) {
				t.Fatalf("n=%d round %d: EdgeKeys %v want %v", n, round, got.EdgeKeys(), all)
			}
		}
	}
}

// TestDynAdjGraphArenaLifetime pins the double-buffer contract: the graph
// of build k is still intact after build k+1.
func TestDynAdjGraphArenaLifetime(t *testing.T) {
	const n = 64
	plan := newTogglePlan(n, 7)
	adj := NewDynAdj(n)
	var prevGraph, prevCopy *Graph
	for round := 1; round <= 20; round++ {
		adds, removes, _ := plan.round(5)
		mustApply(t, adj, adds, removes)
		g := adj.Graph()
		if prevGraph != nil && !prevGraph.Equal(prevCopy) {
			t.Fatalf("round %d: previous build's graph corrupted while still in lifetime", round)
		}
		prevGraph, prevCopy = g, g.Clone()
	}
}

// TestDynAdjGraphNoChangeReturnsCurrent pins the cached path: with no
// edge change since the last build, Graph returns the same pointer.
func TestDynAdjGraphNoChangeReturnsCurrent(t *testing.T) {
	adj := NewDynAdj(8)
	mustApply(t, adj, []EdgeKey{MakeEdgeKey(0, 1)}, nil)
	g1 := adj.Graph()
	if adj.Graph() != g1 {
		t.Fatal("a second Graph call should return the same graph")
	}
	mustApply(t, adj, nil, nil)
	if adj.Graph() != g1 {
		t.Fatal("an empty diff should keep the built graph")
	}
	adj.RemoveEdge(0, 1)
	if g2 := adj.Graph(); g2 == g1 || g2.M() != 0 {
		t.Fatalf("an edge change should rebuild: same=%v m=%d", g2 == g1, g2.M())
	}
}

// TestDynAdjSeededFromGraph seeds an adjacency with another graph's edge
// set and diffs from it, leaving the source graph untouched.
func TestDynAdjSeededFromGraph(t *testing.T) {
	base := GNP(40, 0.2, prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	adj := NewDynAdj(40)
	mustApply(t, adj, base.EdgeKeys(), nil)
	if !adj.Graph().Equal(base) {
		t.Fatal("seeded adjacency does not build the source graph")
	}
	// Remove base's first edge, add a fresh one.
	first := base.EdgeKeys()[0]
	var add EdgeKey
	for u := NodeID(0); add == 0; u++ {
		for v := u + 1; int(v) < 40; v++ {
			if !base.HasEdge(u, v) {
				add = MakeEdgeKey(u, v)
				break
			}
		}
	}
	mustApply(t, adj, []EdgeKey{add}, []EdgeKey{first})
	g := adj.Graph()
	if g.M() != base.M() || g.HasEdge(first.Nodes()) || !g.HasEdge(add.Nodes()) {
		t.Fatalf("graph diffed from the seed is wrong: %s", g)
	}
	if base.HasEdge(add.Nodes()) || !base.HasEdge(first.Nodes()) {
		t.Fatal("seed graph was mutated")
	}
}

// TestDynAdjGraphAllocs pins the steady state: once the rows and both
// arenas have grown over a ping-pong diff cycle, a diff plus a build
// allocates nothing.
func TestDynAdjGraphAllocs(t *testing.T) {
	const n = 512
	adj, deltas := pingPong(t, n, 11)
	i := 0
	step := func() {
		d := deltas[i%len(deltas)]
		i++
		if err := adj.Apply(d.adds, d.removes); err != nil {
			t.Fatal(err)
		}
		adj.Graph()
	}
	for range deltas {
		step()
	}
	if allocs := testing.AllocsPerRun(2*len(deltas), step); allocs != 0 {
		t.Fatalf("Apply+Graph allocates %.1f times per call after warm-up, want 0", allocs)
	}
}

// mustPanicEach runs every case on a fresh adjacency holding {0,1} and
// {2,3}, as a subtest that fails unless the case panics.
func mustPanicEach(t *testing.T, cases []struct {
	name string
	run  func(a *DynAdj)
}) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			a := NewDynAdj(8)
			mustApply(t, a, []EdgeKey{MakeEdgeKey(0, 1), MakeEdgeKey(2, 3)}, nil)
			tc.run(a)
		})
	}
}

// badDiff is a diff Apply must refuse on an adjacency holding {0,1} and
// {2,3} over 8 nodes, with CheckDiff's wording for it.
type badDiff struct {
	name          string
	adds, removes []EdgeKey
	want          string
}

// refuseEach runs every case as a subtest on a fresh adjacency holding
// {0,1} and {2,3}: Apply must return the case's error and leave the
// adjacency as it was.
func refuseEach(t *testing.T, cases []badDiff) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewDynAdj(8)
			mustApply(t, a, []EdgeKey{MakeEdgeKey(0, 1), MakeEdgeKey(2, 3)}, nil)
			err := a.Apply(tc.adds, tc.removes)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Apply(%v, %v) = %v, want %q", tc.adds, tc.removes, err, tc.want)
			}
			if got := a.Graph().EdgeKeys(); !slices.Equal(got, []EdgeKey{MakeEdgeKey(0, 1), MakeEdgeKey(2, 3)}) {
				t.Fatalf("refused diff changed the adjacency to %v", got)
			}
		})
	}
}

// mustApply folds a diff the test expects the adjacency to accept.
func mustApply(tb testing.TB, a *DynAdj, adds, removes []EdgeKey) {
	tb.Helper()
	if err := a.Apply(adds, removes); err != nil {
		tb.Fatal(err)
	}
}

// TestPatcherPanicsOnBadDeltas feeds Apply, the sorted-diff patch of the
// rows, every malformed diff it must refuse, and pins the wording.
func TestPatcherPanicsOnBadDeltas(t *testing.T) {
	refuseEach(t, []badDiff{
		{"add-present", []EdgeKey{MakeEdgeKey(0, 1)}, nil, "adds edge {0,1}, which is present"},
		{"remove-absent", nil, []EdgeKey{MakeEdgeKey(4, 5)}, "removes edge {4,5}, which is absent"},
		{"adds-unsorted", []EdgeKey{MakeEdgeKey(4, 5), MakeEdgeKey(1, 2)}, nil,
			"adds not strictly ascending at {1,2}"},
		{"removes-unsorted", nil, []EdgeKey{MakeEdgeKey(2, 3), MakeEdgeKey(0, 1)},
			"removes not strictly ascending at {0,1}"},
		{"out-of-range", []EdgeKey{MakeEdgeKey(1, 60)}, nil, "adds edge {1,60} outside universe [0,8)"},
		{"non-canonical", []EdgeKey{EdgeKey(5<<32 | 4)}, nil, "adds key {5,4}, which is not a canonical edge"},
		// The valid add must not land before the remove is refused.
		{"remove-absent-after-valid-add", []EdgeKey{MakeEdgeKey(4, 5)}, []EdgeKey{MakeEdgeKey(6, 7)},
			"removes edge {6,7}, which is absent"},
	})
}

// TestDynAdjPanicsOnBadDeltas feeds the single-edge mutators the changes
// they must panic on, and Apply the diffs it must refuse.
func TestDynAdjPanicsOnBadDeltas(t *testing.T) {
	mustPanicEach(t, []struct {
		name string
		run  func(a *DynAdj)
	}{
		{"add-edge-present", func(a *DynAdj) { a.AddEdge(1, 0) }},
		{"remove-edge-absent", func(a *DynAdj) { a.RemoveEdge(0, 2) }},
		{"add-edge-out-of-range", func(a *DynAdj) { a.AddEdge(7, 8) }},
	})
	refuseEach(t, []badDiff{
		{"apply-remove-absent-in-row", nil, []EdgeKey{MakeEdgeKey(0, 2)}, "removes edge {0,2}, which is absent"},
		{"apply-out-of-universe", []EdgeKey{MakeEdgeKey(7, 8)}, nil, "adds edge {7,8} outside universe [0,8)"},
		// An absent edge in both lists would pass an add-then-remove fold
		// and leave M at 2, though no round held the edge.
		{"apply-phantom", []EdgeKey{MakeEdgeKey(0, 2)}, []EdgeKey{MakeEdgeKey(0, 2)},
			"lists edge {0,2} as both added and removed"},
		{"apply-mirror", []EdgeKey{MakeEdgeKey(0, 1)}, []EdgeKey{MakeEdgeKey(0, 1)},
			"lists edge {0,1} as both added and removed"},
	})
}

// TestCommonKey checks the disjointness walk against a pairwise scan.
func TestCommonKey(t *testing.T) {
	k := func(u, v NodeID) EdgeKey { return MakeEdgeKey(u, v) }
	for _, tc := range []struct {
		a, b []EdgeKey
		want EdgeKey
		ok   bool
	}{
		{nil, nil, 0, false},
		{[]EdgeKey{k(0, 1)}, nil, 0, false},
		{[]EdgeKey{k(0, 1), k(2, 3)}, []EdgeKey{k(0, 2), k(1, 3)}, 0, false},
		{[]EdgeKey{k(0, 1), k(2, 3)}, []EdgeKey{k(0, 2), k(2, 3)}, k(2, 3), true},
		{[]EdgeKey{k(0, 3), k(1, 2), k(4, 5)}, []EdgeKey{k(1, 2), k(4, 5)}, k(1, 2), true},
	} {
		if got, ok := CommonKey(tc.a, tc.b); got != tc.want || ok != tc.ok {
			t.Errorf("CommonKey(%v, %v) = (%v, %v), want (%v, %v)", tc.a, tc.b, got, ok, tc.want, tc.ok)
		}
		if got, ok := CommonKey(tc.b, tc.a); got != tc.want || ok != tc.ok {
			t.Errorf("CommonKey(%v, %v) = (%v, %v), want (%v, %v)", tc.b, tc.a, got, ok, tc.want, tc.ok)
		}
	}
}

// keyDelta is one sorted edge diff of a benchmark or allocation cycle.
type keyDelta struct{ adds, removes []EdgeKey }

// pingPong returns an adjacency holding about 4n random edges and a cycle
// of 64-toggle diffs that plays forward and then back, so the edge set
// and every row size stay bounded however often the cycle repeats.
func pingPong(tb testing.TB, n int, seed uint64) (*DynAdj, []keyDelta) {
	plan := newTogglePlan(n, seed)
	adj := NewDynAdj(n)
	adds, _, _ := plan.round(4 * n)
	mustApply(tb, adj, adds, nil)
	const cycle = 8
	deltas := make([]keyDelta, 0, 2*cycle)
	for i := 0; i < cycle; i++ {
		adds, removes, _ := plan.round(64)
		deltas = append(deltas, keyDelta{adds, removes})
	}
	for i := cycle - 1; i >= 0; i-- {
		deltas = append(deltas, keyDelta{deltas[i].removes, deltas[i].adds})
	}
	return adj, deltas
}

// BenchmarkDynAdjGraph measures one graph build after a small diff: rows
// builds the CSR from the DynAdj rows (the diff's Apply included), and
// rebuild is the FromSortedEdges counting build of the same edge set.
func BenchmarkDynAdjGraph(b *testing.B) {
	for _, n := range []int{4096, 16384, 65536} {
		b.Run(fmt.Sprintf("rows/N=%d", n), func(b *testing.B) {
			adj, deltas := pingPong(b, n, 3)
			for _, d := range deltas { // grow the rows and both arenas
				if err := adj.Apply(d.adds, d.removes); err != nil {
					b.Fatal(err)
				}
				adj.Graph()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := deltas[i%len(deltas)]
				if err := adj.Apply(d.adds, d.removes); err != nil {
					b.Fatal(err)
				}
				adj.Graph()
			}
		})
		b.Run(fmt.Sprintf("rebuild/N=%d", n), func(b *testing.B) {
			adj, _ := pingPong(b, n, 3)
			keys := adj.Graph().Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = FromSortedEdges(n, keys)
			}
		})
	}
}
