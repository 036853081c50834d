package verify_test

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// ExampleNewTDynamic checks a fixed coloring of the 4-path under a
// transient extra edge. The conflict edge {0,2} (both endpoints colored
// 1) appears in round 4 only: it immediately enters the union graph
// G^∪T but never survives T consecutive rounds, so it never reaches the
// intersection graph G^∩T — and the packing (properness) condition is
// judged on G^∩T, so the T-dynamic guarantee holds every round. Held
// for T rounds instead, the edge enters G^∩T and the checker flags it.
func ExampleNewTDynamic() {
	const n = 4
	const T = 3
	out := []problems.Value{1, 2, 1, 2} // proper on the path, 0 and 2 share color 1
	conflict := []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}

	check := verify.NewTDynamic(problems.Coloring(), T, n)
	// Each round is fed as its delta: the sorted edge diff against the
	// previous round, the newly awake nodes and the nodes whose output
	// changed. In round 1 everyone wakes, the path 0-1-2-3 appears and
	// every node outputs its color; no output changes after that.
	round := func(r int, adds, removes []graph.EdgeKey) verify.TDynamicReport {
		d := engine.RoundDelta{Round: r, EdgeAdds: adds, EdgeRemoves: removes, Outputs: out}
		if r == 1 {
			d.Wake = []graph.NodeID{0, 1, 2, 3}
			d.Changed = d.Wake
		}
		return check.Feed(d)
	}
	for r := 1; r <= 6; r++ {
		var adds, removes []graph.EdgeKey
		switch r {
		case 1:
			adds = graph.Path(n).EdgeKeys()
		case 4:
			adds = conflict // present in round 4 only
		case 5:
			removes = conflict
		}
		rep := round(r, adds, removes)
		fmt.Printf("round %d: core=%d valid=%v\n", rep.Round, rep.CoreNodes, rep.Valid())
	}

	// Keep the conflict edge for T consecutive rounds: it enters G^∩T.
	rep := round(7, conflict, nil)
	for r := 8; r < 7+T; r++ {
		rep = round(r, nil, nil)
	}
	fmt.Printf("after %d conflict rounds: valid=%v packing violations=%d\n",
		T, rep.Valid(), len(rep.PackingViolations))
	// Output:
	// round 1: core=0 valid=true
	// round 2: core=0 valid=true
	// round 3: core=4 valid=true
	// round 4: core=4 valid=true
	// round 5: core=4 valid=true
	// round 6: core=4 valid=true
	// after 3 conflict rounds: valid=false packing violations=1
}
