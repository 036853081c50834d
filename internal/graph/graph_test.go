package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"dynlocal/internal/prf"
)

func stream(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func TestMakeEdgeKeyCanonical(t *testing.T) {
	if MakeEdgeKey(3, 7) != MakeEdgeKey(7, 3) {
		t.Fatal("edge key not canonical under endpoint swap")
	}
	u, v := MakeEdgeKey(7, 3).Nodes()
	if u != 3 || v != 7 {
		t.Fatalf("Nodes() = (%d,%d), want (3,7)", u, v)
	}
}

func TestMakeEdgeKeySelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	MakeEdgeKey(4, 4)
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(a, b int16) bool {
		u, v := NodeID(a&0x7fff), NodeID(b&0x7fff)
		if u == v {
			return true
		}
		x, y := MakeEdgeKey(u, v).Nodes()
		lo, hi := u, v
		if lo > hi {
			lo, hi = hi, lo
		}
		return x == lo && y == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGraphDegreesAndNeighborsSorted(t *testing.T) {
	g := FromEdges(6, []EdgeKey{MakeEdgeKey(2, 5), MakeEdgeKey(2, 0), MakeEdgeKey(2, 4)})
	if g.Degree(2) != 3 {
		t.Fatalf("Degree(2) = %d", g.Degree(2))
	}
	nb := g.Neighbors(2)
	want := []NodeID{0, 4, 5}
	for i, v := range want {
		if nb[i] != v {
			t.Fatalf("Neighbors(2) = %v, want %v", nb, want)
		}
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := GNP(40, 0.2, stream(1))
	h := FromEdges(g.N(), g.Edges())
	if !g.Equal(h) {
		t.Fatal("Edges()/FromEdges round trip failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := GNP(20, 0.3, stream(2))
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	// Mutating the clone's arena must not touch the original.
	if g.M() == 0 {
		t.Fatal("workload graph unexpectedly edgeless")
	}
	c.neighbors[0]++
	if g.neighbors[0] == c.neighbors[0] {
		t.Fatal("clone shares adjacency storage")
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	a := Cycle(5)
	b := Path(5)
	if a.Equal(b) {
		t.Fatal("cycle equal to path")
	}
	if !a.Equal(Cycle(5)) {
		t.Fatal("cycle not equal to itself")
	}
	if a.Equal(Cycle(6)) {
		t.Fatal("different n reported equal")
	}
}

func TestUnionIntersectionDifference(t *testing.T) {
	a := FromEdges(5, []EdgeKey{MakeEdgeKey(0, 1), MakeEdgeKey(1, 2)})
	b := FromEdges(5, []EdgeKey{MakeEdgeKey(1, 2), MakeEdgeKey(3, 4)})
	u := Union(a, b)
	if u.M() != 3 || !u.HasEdge(0, 1) || !u.HasEdge(1, 2) || !u.HasEdge(3, 4) {
		t.Fatalf("union wrong: %s", u.DebugString())
	}
	i := Intersection(a, b)
	if i.M() != 1 || !i.HasEdge(1, 2) {
		t.Fatalf("intersection wrong: %s", i.DebugString())
	}
	if _, d := DiffSortedKeys(a.Edges(), b.Edges(), nil, nil); !slices.Equal(d, []EdgeKey{MakeEdgeKey(0, 1)}) {
		t.Fatalf("difference wrong: %v", d)
	}
}

func TestSetOpsAlgebraProperties(t *testing.T) {
	s := stream(3)
	f := func(seedA, seedB uint16) bool {
		_ = seedA
		_ = seedB
		a := GNP(25, 0.15, s)
		b := GNP(25, 0.15, s)
		// Intersection ⊆ a, b ⊆ Union.
		i := Intersection(a, b)
		u := Union(a, b)
		ok := true
		i.EachEdge(func(x, y NodeID) {
			if !a.HasEdge(x, y) || !b.HasEdge(x, y) {
				ok = false
			}
		})
		a.EachEdge(func(x, y NodeID) {
			if !u.HasEdge(x, y) {
				ok = false
			}
		})
		// |A∪B| = |A| + |B| - |A∩B|
		if u.M() != a.M()+b.M()-i.M() {
			ok = false
		}
		// A \ B disjoint from B.
		_, d := DiffSortedKeys(a.Edges(), b.Edges(), nil, nil)
		for _, k := range d {
			if b.HasEdge(k.Nodes()) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBallRadii(t *testing.T) {
	g := Path(7) // 0-1-2-3-4-5-6
	cases := []struct {
		r    int
		want []NodeID
	}{
		{0, []NodeID{3}},
		{1, []NodeID{2, 3, 4}},
		{2, []NodeID{1, 2, 3, 4, 5}},
		{10, []NodeID{0, 1, 2, 3, 4, 5, 6}},
	}
	for _, c := range cases {
		got := Ball(g, 3, c.r)
		if len(got) != len(c.want) {
			t.Fatalf("Ball r=%d = %v, want %v", c.r, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Ball r=%d = %v, want %v", c.r, got, c.want)
			}
		}
	}
}

// connectedComponents returns a component label per node (labels are
// the minimal node id in each component) and the number of components,
// counting isolated nodes as singleton components.
func connectedComponents(g *Graph) (label []NodeID, count int) {
	label = make([]NodeID, g.n)
	for i := range label {
		label[i] = -1
	}
	var stack []NodeID
	for v := 0; v < g.n; v++ {
		if label[v] != -1 {
			continue
		}
		count++
		root := NodeID(v)
		label[v] = root
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if label[w] == -1 {
					label[w] = root
					stack = append(stack, w)
				}
			}
		}
	}
	return label, count
}

func TestConnectedComponents(t *testing.T) {
	g := FromEdges(6, []EdgeKey{MakeEdgeKey(0, 1), MakeEdgeKey(1, 2), MakeEdgeKey(4, 5)})
	label, count := connectedComponents(g)
	if count != 3 { // {0,1,2}, {3}, {4,5}
		t.Fatalf("count = %d, want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("component {0,1,2} split")
	}
	if label[3] == label[0] || label[4] != label[5] || label[4] == label[3] {
		t.Fatal("component labels wrong")
	}
}

// TestSortEdgeKeysMatchesSort checks the radix sort against
// slices.Sort on universes of 2 to 2^30 nodes, whose keys vary in two
// to eight bytes, with 0 to 2000 keys.
func TestSortEdgeKeysMatchesSort(t *testing.T) {
	for _, n := range []int{2, 300, 70000, 1 << 30} {
		for _, size := range []int{0, 1, 2, 17, 2000} {
			str := prf.NewStream(uint64(n), int32(size), 0, prf.PurposeWorkload)
			seen := map[EdgeKey]bool{}
			var keys []EdgeKey
			for len(keys) < size && len(seen) < n*(n-1)/2 {
				u, v := NodeID(str.Intn(n)), NodeID(str.Intn(n))
				if u == v {
					continue
				}
				if k := MakeEdgeKey(u, v); !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := SortEdgeKeys(keys, make([]EdgeKey, len(keys)))
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d, %d keys: radix order differs from slices.Sort", n, len(keys))
			}
		}
	}
}

// TestDiffSortedKeys pins the linear-merge diff.
func TestDiffSortedKeys(t *testing.T) {
	plan := newTogglePlan(30, 11)
	_, _, a := plan.round(40)
	prev := append([]EdgeKey(nil), a...)
	adds, removes, cur := plan.round(15)
	gotAdds, gotRems := DiffSortedKeys(prev, cur, nil, nil)
	if len(gotAdds) != len(adds) || len(gotRems) != len(removes) {
		t.Fatalf("diff sizes: %d/%d want %d/%d", len(gotAdds), len(gotRems), len(adds), len(removes))
	}
	for i := range adds {
		if gotAdds[i] != adds[i] {
			t.Fatalf("adds[%d] = %v want %v", i, gotAdds[i], adds[i])
		}
	}
	for i := range removes {
		if gotRems[i] != removes[i] {
			t.Fatalf("removes[%d] = %v want %v", i, gotRems[i], removes[i])
		}
	}
	// Self-diff is empty; diff against nil is all-adds/all-removes.
	if a2, r2 := DiffSortedKeys(cur, cur, nil, nil); len(a2) != 0 || len(r2) != 0 {
		t.Fatal("self diff not empty")
	}
	if a3, _ := DiffSortedKeys(nil, cur, nil, nil); len(a3) != len(cur) {
		t.Fatal("diff from empty should be all adds")
	}
}
