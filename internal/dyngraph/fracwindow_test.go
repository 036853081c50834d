package dyngraph

import (
	"math"
	"testing"
	"testing/quick"

	"dynlocal/internal/graph"
)

// directFracGraph computes G^{δ,T} from the raw history. The threshold is
// ⌈δ·T⌉ over the full window size, with the same rounding guard as the
// implementation so that decimally-exact products (0.2·15 = 3) are not
// inflated by float64 rounding; rounds before the sequence started count
// as absent (round 0 is the empty graph).
func directFracGraph(history []*graph.Graph, T int, delta float64) *graph.Graph {
	r := len(history)
	r0 := r - T + 1
	if r0 < 1 {
		r0 = 1
	}
	th := int(math.Ceil(delta*float64(T) - fracTolerance))
	if th < 1 {
		th = 1
	}
	counts := make(map[graph.EdgeKey]int)
	for _, g := range history[r0-1 : r] {
		g.EachEdge(func(u, v graph.NodeID) {
			counts[graph.MakeEdgeKey(u, v)]++
		})
	}
	var keys []graph.EdgeKey
	for k, c := range counts {
		if c >= th {
			keys = append(keys, k)
		}
	}
	return graph.FromEdges(history[0].N(), keys)
}

// fracGraphFed drives a FracWindow from whole round graphs through the
// one production feed, diffing consecutive graphs — the FracWindow
// counterpart of graphFed.
type fracGraphFed struct {
	*FracWindow
	prev []graph.EdgeKey
}

func newFracGraphFed(t, n int) *fracGraphFed { return &fracGraphFed{FracWindow: NewFracWindow(t, n)} }

// Observe advances the window to the next round with graph g.
func (f *fracGraphFed) Observe(g *graph.Graph, wake []graph.NodeID) {
	adds, removes := graph.DiffSortedKeys(f.prev, g.EdgeKeys(), nil, nil)
	f.prev = append(f.prev[:0], g.EdgeKeys()...)
	f.ObserveEdgeDelta(adds, removes, wake)
}

func TestFracWindowMatchesDirect(t *testing.T) {
	const n = 20
	const T = 5
	s := wstream(77)
	w := newFracGraphFed(T, n)
	var history []*graph.Graph
	for round := 1; round <= 18; round++ {
		g := graph.GNP(n, 0.2, s)
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		w.Observe(g, wake)
		history = append(history, g)
		for _, delta := range []float64{0.2, 0.5, 0.8, 1.0} {
			got := w.Graph(delta)
			want := directFracGraph(history, T, delta)
			if !got.Equal(want) {
				t.Fatalf("round %d δ=%v mismatch\ngot  %s\nwant %s",
					round, delta, got.DebugString(), want.DebugString())
			}
		}
	}
}

func TestFracWindowDeltaOneEqualsIntersection(t *testing.T) {
	f := func(seed uint16) bool {
		const n = 14
		const T = 4
		s := wstream(uint64(seed))
		fw := newFracGraphFed(T, n)
		w := newGraphFed(T, n)
		for round := 1; round <= 12; round++ {
			g := graph.GNP(n, 0.25, s)
			var wake []graph.NodeID
			if round == 1 {
				wake = allNodes(n)
			}
			fw.Observe(g.Clone(), wake)
			w.Observe(g, wake)
			if !fw.Graph(1.0).Equal(w.IntersectionGraph()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFracWindowSmallDeltaEqualsUnion(t *testing.T) {
	// δ small enough that threshold = 1 => union graph.
	const n = 14
	const T = 6
	s := wstream(123)
	fw := newFracGraphFed(T, n)
	w := newGraphFed(T, n)
	for round := 1; round <= 15; round++ {
		g := graph.GNP(n, 0.2, s)
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		fw.Observe(g.Clone(), wake)
		w.Observe(g, wake)
		if !fw.Graph(0.01).Equal(w.UnionGraph()) {
			t.Fatalf("round %d: δ→0 graph differs from union", round)
		}
	}
}

func TestFracWindowMonotoneInDelta(t *testing.T) {
	// Increasing δ can only remove edges.
	const n = 16
	const T = 5
	s := wstream(321)
	fw := newFracGraphFed(T, n)
	for round := 1; round <= 10; round++ {
		var wake []graph.NodeID
		if round == 1 {
			wake = allNodes(n)
		}
		fw.Observe(graph.GNP(n, 0.3, s), wake)
	}
	deltas := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0}
	prev := fw.Graph(deltas[0])
	for _, d := range deltas[1:] {
		cur := fw.Graph(d)
		cur.EachEdge(func(u, v graph.NodeID) {
			if !prev.HasEdge(u, v) {
				t.Fatalf("δ=%v has edge {%d,%d} missing at smaller δ", d, u, v)
			}
		})
		prev = cur
	}
}

func TestFracWindowCount(t *testing.T) {
	w := newFracGraphFed(4, 3)
	e := graph.FromEdges(3, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	empty := graph.Empty(3)
	w.Observe(e, allNodes(3))
	w.Observe(empty, nil)
	w.Observe(e, nil)
	if got := w.Count(0, 1); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	w.Observe(empty, nil)
	w.Observe(empty, nil)
	// Window covers rounds 2..5: edge present only in round 3.
	if got := w.Count(0, 1); got != 1 {
		t.Fatalf("Count after aging = %d, want 1", got)
	}
	if w.Count(1, 1) != 0 {
		t.Fatal("self loop count nonzero")
	}
}

// TestFracWindowThreshold pins ⌈δ·T⌉ for products that are exact integers
// in decimal arithmetic — where the former truncate-then-compare float
// computation inflated the threshold by one (0.2·15 = 3.0000000000000004 →
// 4) — and for true fractions, which must still round up.
func TestFracWindowThreshold(t *testing.T) {
	cases := []struct {
		t     int
		delta float64
		want  int
	}{
		// Decimally exact products: threshold must be the product itself.
		{15, 0.2, 3},
		{30, 0.1, 3},
		{16, 0.25, 4},
		{10, 0.3, 3},
		{7, 1.0, 7},
		// True fractions: round up.
		{10, 0.35, 4},
		{5, 0.5, 3},
		{3, 0.34, 2},
		{64, 0.4, 26},
		// Tiny δ clamps to 1.
		{64, 0.01, 1},
		{4, 0.1, 1},
	}
	for _, c := range cases {
		w := NewFracWindow(c.t, 2)
		if got := w.threshold(c.delta); got != c.want {
			t.Errorf("threshold(δ=%v, T=%d) = %d, want %d", c.delta, c.t, got, c.want)
		}
	}
}

// TestFracWindowExactProductKeepsEdges checks end to end that δ values
// whose product with T is decimally exact do not drop edges: with δ = 0.2
// and T = 15, an edge present in exactly 3 of the last 15 rounds must be
// in G^{0.2,15}.
func TestFracWindowExactProductKeepsEdges(t *testing.T) {
	const T = 15
	const n = 2
	w := newFracGraphFed(T, n)
	e := graph.FromEdges(n, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	empty := graph.Empty(n)
	w.Observe(empty, allNodes(n))
	for r := 2; r <= T; r++ {
		if r <= 4 {
			w.Observe(e, nil) // present rounds 2, 3, 4 — count 3
		} else {
			w.Observe(empty, nil)
		}
	}
	if got := w.Count(0, 1); got != 3 {
		t.Fatalf("edge count = %d, want 3", got)
	}
	if !w.Graph(0.2).HasEdge(0, 1) {
		t.Fatal("edge with count 3 = 0.2·15 missing from G^{0.2,15}")
	}
	if w.Graph(0.3).HasEdge(0, 1) {
		t.Fatal("edge with count 3 < ⌈0.3·15⌉ = 5 wrongly included")
	}
}

func TestFracWindowRejectsSleepingEdges(t *testing.T) {
	w := newFracGraphFed(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for edge touching sleeping node")
		}
	}()
	w.Observe(graph.FromEdges(3, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}), []graph.NodeID{0, 1})
}

func TestFracWindowValidation(t *testing.T) {
	for _, bad := range []int{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for T=%d", bad)
				}
			}()
			NewFracWindow(bad, 4)
		}()
	}
	w := NewFracWindow(4, 4)
	for _, badDelta := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for delta=%v", badDelta)
				}
			}()
			w.Graph(badDelta)
		}()
	}
}
