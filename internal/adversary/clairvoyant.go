package adversary

import (
	"slices"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// LubyStaller is the adaptive-offline adversary of the remark after
// Lemma 5.2: "If the adversary knew the random values of round r, it
// could, e.g., delete all edges between nodes for which (v → w)_r holds."
//
// It is constructed with the engine's PRF seed, so — unlike every
// ρ-oblivious adversary — it can compute the exact random number α_v each
// undecided node will draw in the coming round (prf.Alpha is the same
// function DMis evaluates). Each round it finds the nodes that would join
// the MIS (local α-minima among undecided nodes, iterated to a fixpoint as
// deletions create new minima) and deletes all their edges to undecided
// neighbors before the round is played. Winners still join M, but can
// never inform — and therefore never dominate — a neighbor, so the
// undecided-undecided edge set H_r shrinks only by the adversary's own
// deletions instead of by the 1/3 expected fraction of Lemma 5.2.
// Experiment E13 measures the resulting stall.
//
// Round 1 adds the base edges that survive its own burning; every later
// round removes the edges burned in it.
type LubyStaller struct {
	Base *graph.Graph
	// Seed must equal the engine seed; Purpose must equal the purpose tag
	// under which the attacked DMis instance draws its α values
	// (prf.PurposeLubyAlpha for a standalone DMis).
	Seed    uint64
	Purpose prf.Purpose

	removed map[graph.EdgeKey]bool
	burned  []graph.EdgeKey // this round's newly removed edges
	// Deleted counts the edges burned so far (experiment metric).
	Deleted int
}

// Step implements Adversary.
func (a *LubyStaller) Step(v View) Step {
	if a.removed == nil {
		a.removed = make(map[graph.EdgeKey]bool)
	}
	n := a.Base.N()
	st := Step{}
	if v.Round() == 1 {
		st.Wake = AllNodes(n)
	}
	out := v.DelayedOutputs()
	undecided := make([]bool, n)
	for id := 0; id < n; id++ {
		if out == nil {
			undecided[id] = true // round 1: everything is undecided
		} else {
			undecided[id] = out[id] == problems.Bot
		}
	}

	// Adjacency among undecided nodes in the surviving graph. The alpha
	// words and the (word, id) tie-break replicate DMis's comparison
	// bit-exactly.
	alpha := make([]uint64, n)
	for id := int32(0); id < int32(n); id++ {
		alpha[id] = prf.AlphaWord(a.Seed, id, v.Round(), a.Purpose)
	}
	adj := make(map[graph.NodeID][]graph.NodeID)
	a.Base.EachEdge(func(x, y graph.NodeID) {
		if a.removed[graph.MakeEdgeKey(x, y)] {
			return
		}
		if undecided[x] && undecided[y] {
			adj[x] = append(adj[x], y)
			adj[y] = append(adj[y], x)
		}
	})

	a.burned = a.burned[:0]
	// Fixpoint: delete the undecided-incident edges of every would-be
	// winner; deletions can create new winners within the same round.
	for {
		var winners []graph.NodeID
		for x, nbrs := range adj {
			if len(nbrs) == 0 {
				continue
			}
			isMin := true
			for _, y := range nbrs {
				if alpha[y] < alpha[x] || (alpha[y] == alpha[x] && y < x) {
					isMin = false
					break
				}
			}
			if isMin {
				winners = append(winners, x)
			}
		}
		if len(winners) == 0 {
			break
		}
		// winners was collected in map order; sort so edge deletions and
		// the Deleted counter replay identically on every execution.
		slices.Sort(winners)
		for _, x := range winners {
			for _, y := range adj[x] {
				k := graph.MakeEdgeKey(x, y)
				if !a.removed[k] {
					a.removed[k] = true
					a.burned = append(a.burned, k)
					a.Deleted++
				}
				// Remove x from y's list.
				lst := adj[y]
				for i, z := range lst {
					if z == x {
						lst[i] = lst[len(lst)-1]
						adj[y] = lst[:len(lst)-1]
						break
					}
				}
			}
			delete(adj, x)
		}
	}

	if v.Round() > 1 {
		slices.Sort(a.burned)
		st.EdgeRemoves = a.burned
		return st
	}
	a.Base.EachEdge(func(x, y graph.NodeID) {
		if k := graph.MakeEdgeKey(x, y); !a.removed[k] {
			st.EdgeAdds = append(st.EdgeAdds, k)
		}
	})
	// EachEdge visits edges in canonical order, so EdgeAdds is sorted.
	return st
}
