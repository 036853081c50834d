package problems

import (
	"strings"
	"testing"
	"testing/quick"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

func nodes(ids ...graph.NodeID) []graph.NodeID { return ids }

func allIDs(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

func TestProperColoringCheckFull(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	ok := []Value{1, 2, 1, 2}
	if bad := (ProperColoring{}).CheckFull(g, ok, allIDs(4)); len(bad) != 0 {
		t.Fatalf("valid coloring flagged: %v", bad)
	}
	conflict := []Value{1, 1, 2, 1}
	bad := (ProperColoring{}).CheckFull(g, conflict, allIDs(4))
	if len(bad) != 1 || bad[0].Node != 0 || bad[0].Peer != 1 {
		t.Fatalf("conflict not found once: %v", bad)
	}
	withBot := []Value{1, Bot, 1, 2}
	bad = (ProperColoring{}).CheckFull(g, withBot, allIDs(4))
	if len(bad) != 1 || !strings.Contains(bad[0].Reason, "⊥") {
		t.Fatalf("Bot not flagged in full check: %v", bad)
	}
	neg := []Value{-3, 2, 1, 2}
	if bad := (ProperColoring{}).CheckFull(g, neg, allIDs(4)); len(bad) != 1 {
		t.Fatalf("negative color not flagged: %v", bad)
	}
}

func TestProperColoringCheckFullSubset(t *testing.T) {
	g := graph.Path(4)
	out := []Value{1, 1, Bot, Bot} // conflict on {0,1}, Bot outside subset
	bad := (ProperColoring{}).CheckFull(g, out, nodes(0, 1))
	if len(bad) != 1 {
		t.Fatalf("subset check wrong: %v", bad)
	}
	// Conflict against a node outside the subset is not counted.
	out2 := []Value{1, 1, Bot, Bot}
	if bad := (ProperColoring{}).CheckFull(g, out2, nodes(0)); len(bad) != 0 {
		t.Fatalf("out-of-subset conflict counted: %v", bad)
	}
}

func TestProperColoringCheckPartial(t *testing.T) {
	g := graph.Path(4)
	partial := []Value{1, Bot, 1, Bot} // non-adjacent equal colors: fine
	if bad := (ProperColoring{}).CheckPartial(g, partial); len(bad) != 0 {
		t.Fatalf("valid partial flagged: %v", bad)
	}
	conflict := []Value{1, 1, Bot, Bot}
	if bad := (ProperColoring{}).CheckPartial(g, conflict); len(bad) != 1 {
		t.Fatalf("partial conflict missed: %v", bad)
	}
	allBot := []Value{Bot, Bot, Bot, Bot}
	if bad := (ProperColoring{}).CheckPartial(g, allBot); len(bad) != 0 {
		t.Fatalf("all-Bot flagged: %v", bad)
	}
}

func TestDegreeRangeChecks(t *testing.T) {
	g := graph.Star(4) // center 0 has degree 3, leaves degree 1
	ok := []Value{4, 1, 2, 2}
	if bad := (DegreeRange{}).CheckFull(g, ok, allIDs(4)); len(bad) != 0 {
		t.Fatalf("valid range flagged: %v", bad)
	}
	tooBig := []Value{5, 1, 2, 2} // center limit is 4
	if bad := (DegreeRange{}).CheckFull(g, tooBig, allIDs(4)); len(bad) != 1 || bad[0].Node != 0 {
		t.Fatalf("over-range color missed: %v", bad)
	}
	leafTooBig := []Value{1, 3, 1, 1} // leaf limit is 2
	if bad := (DegreeRange{}).CheckFull(g, leafTooBig, allIDs(4)); len(bad) != 1 || bad[0].Node != 1 {
		t.Fatalf("leaf over-range missed: %v", bad)
	}
	// Partial: Bot allowed, colored nodes still range-checked.
	partial := []Value{Bot, 3, Bot, Bot}
	if bad := (DegreeRange{}).CheckPartial(g, partial); len(bad) != 1 {
		t.Fatalf("partial range violation missed: %v", bad)
	}
	if bad := (DegreeRange{}).CheckPartial(g, []Value{Bot, 2, Bot, Bot}); len(bad) != 0 {
		t.Fatalf("valid partial flagged: %v", bad)
	}
	// Full: Bot flagged.
	if bad := (DegreeRange{}).CheckFull(g, partial, allIDs(4)); len(bad) != 4 {
		t.Fatalf("expected 3 Bot + 1 range violations, got %v", bad)
	}
}

func TestIndependentSetChecks(t *testing.T) {
	g := graph.Cycle(5)
	ok := []Value{InMIS, Dominated, InMIS, Dominated, Dominated}
	if bad := (IndependentSet{}).CheckFull(g, ok, allIDs(5)); len(bad) != 0 {
		t.Fatalf("valid IS flagged: %v", bad)
	}
	adj := []Value{InMIS, InMIS, Dominated, Dominated, Dominated}
	if bad := (IndependentSet{}).CheckFull(g, adj, allIDs(5)); len(bad) != 1 {
		t.Fatalf("adjacent MIS pair missed: %v", bad)
	}
	badDomain := []Value{7, Dominated, InMIS, Dominated, Dominated}
	found := false
	for _, b := range (IndependentSet{}).CheckFull(g, badDomain, allIDs(5)) {
		if strings.Contains(b.Reason, "invalid") {
			found = true
		}
	}
	if !found {
		t.Fatal("invalid domain value not flagged")
	}
	// Partial: Bot fine, adjacent InMIS not.
	partial := []Value{InMIS, Bot, Bot, InMIS, Bot}
	if bad := (IndependentSet{}).CheckPartial(g, partial); len(bad) != 0 {
		t.Fatalf("valid partial IS flagged: %v", bad)
	}
	partialBad := []Value{InMIS, InMIS, Bot, Bot, Bot}
	if bad := (IndependentSet{}).CheckPartial(g, partialBad); len(bad) != 1 {
		t.Fatalf("partial adjacent MIS missed: %v", bad)
	}
}

func TestDominatingSetChecks(t *testing.T) {
	g := graph.Cycle(5)
	ok := []Value{InMIS, Dominated, InMIS, Dominated, Dominated}
	if bad := (DominatingSet{}).CheckFull(g, ok, allIDs(5)); len(bad) != 0 {
		t.Fatalf("valid DS flagged: %v", bad)
	}
	// Nodes 2 and 3 dominated but all their neighbors dominated too.
	lonely := []Value{InMIS, Dominated, Dominated, Dominated, Dominated}
	bad := (DominatingSet{}).CheckFull(g, lonely, allIDs(5))
	if len(bad) != 2 || bad[0].Node != 2 || bad[1].Node != 3 {
		t.Fatalf("undominated nodes missed: %v", bad)
	}
	// Bot counted in full solutions (and node 3 then lacks an InMIS
	// neighbor, since its only candidates are Bot and Dominated).
	withBot := []Value{InMIS, Dominated, Bot, Dominated, Dominated}
	if bad := (DominatingSet{}).CheckFull(g, withBot, allIDs(5)); len(bad) != 2 {
		t.Fatalf("Bot missed in full DS check: %v", bad)
	}
	// Partial covering: Dominated needs an InMIS neighbor NOW.
	partialBad := []Value{Bot, Dominated, Bot, Bot, Bot}
	if bad := (DominatingSet{}).CheckPartial(g, partialBad); len(bad) != 1 {
		t.Fatalf("premature Dominated missed: %v", bad)
	}
	partialOK := []Value{InMIS, Dominated, Bot, Bot, Bot}
	if bad := (DominatingSet{}).CheckPartial(g, partialOK); len(bad) != 0 {
		t.Fatalf("valid partial DS flagged: %v", bad)
	}
}

func TestDominationFromOutsideSubsetCounts(t *testing.T) {
	g := graph.Path(3) // 0-1-2
	out := []Value{InMIS, Dominated, InMIS}
	// Checking only node 1: its domination comes from nodes outside the
	// checked subset, which must count.
	if bad := (DominatingSet{}).CheckFull(g, out, nodes(1)); len(bad) != 0 {
		t.Fatalf("outside-subset domination not counted: %v", bad)
	}
}

// Property: the defining closure properties of Definition 3.1.
// Packing solutions survive edge removal; covering solutions survive edge
// addition.
func TestPackingClosedUnderEdgeRemoval(t *testing.T) {
	s := prf.NewStream(7, 0, 0, prf.PurposeWorkload)
	f := func(seed uint16) bool {
		const n = 16
		g := graph.GNP(n, 0.3, s)
		// Greedy proper coloring of g.
		out := greedyColor(g)
		if len((ProperColoring{}).CheckFull(g, out, allIDs(n))) != 0 {
			return false
		}
		// Remove ~half the edges.
		var half []graph.EdgeKey
		for i, k := range g.Edges() {
			if i%2 == 0 {
				half = append(half, k)
			}
		}
		sub := graph.FromSortedEdges(n, half)
		// Packing: still valid on the subgraph.
		return len((ProperColoring{}).CheckFull(sub, out, allIDs(n))) == 0 &&
			len((IndependentSet{}).CheckFull(sub, greedyMIS(g), allIDs(n))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCoveringClosedUnderEdgeAddition(t *testing.T) {
	s := prf.NewStream(8, 0, 0, prf.PurposeWorkload)
	f := func(seed uint16) bool {
		const n = 16
		g := graph.GNP(n, 0.25, s)
		colorOut := greedyColor(g)
		misOut := greedyMIS(g)
		if len((DegreeRange{}).CheckFull(g, colorOut, allIDs(n))) != 0 {
			return false
		}
		if len((DominatingSet{}).CheckFull(g, misOut, allIDs(n))) != 0 {
			return false
		}
		// Add edges.
		super := graph.Union(g, graph.GNP(n, 0.2, s))
		return len((DegreeRange{}).CheckFull(super, colorOut, allIDs(n))) == 0 &&
			len((DominatingSet{}).CheckFull(super, misOut, allIDs(n))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPCBundles(t *testing.T) {
	m := MIS()
	if m.Name() != "mis" || m.P.Name() != "independent-set" || m.C.Name() != "dominating-set" {
		t.Fatal("MIS bundle wrong")
	}
	c := Coloring()
	if c.Name() != "degree+1-coloring" || c.P.Radius() != 1 || c.C.Radius() != 1 {
		t.Fatal("coloring bundle wrong")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Node: 3, Peer: NoPeer, Reason: "x"}
	if !strings.Contains(v.String(), "node 3") {
		t.Fatal("unary violation string wrong")
	}
	v2 := Violation{Node: 3, Peer: 4, Reason: "y"}
	if !strings.Contains(v2.String(), "peer 4") {
		t.Fatal("binary violation string wrong")
	}
}

// greedyColor produces a valid (degree+1)-coloring sequentially.
func greedyColor(g *graph.Graph) []Value {
	out := make([]Value, g.N())
	for v := 0; v < g.N(); v++ {
		used := make(map[Value]bool)
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			used[out[u]] = true
		}
		c := Value(1)
		for used[c] {
			c++
		}
		out[v] = c
	}
	return out
}

// greedyMIS produces a valid MIS sequentially.
func greedyMIS(g *graph.Graph) []Value {
	out := make([]Value, g.N())
	for v := 0; v < g.N(); v++ {
		inMIS := true
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if out[u] == InMIS {
				inMIS = false
				break
			}
		}
		if inMIS {
			out[v] = InMIS
		} else {
			out[v] = Dominated
		}
	}
	return out
}
