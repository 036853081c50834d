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

	// removed marks the burned base edges, by index in Base.EdgeKeys().
	removed []bool
	burned  []graph.EdgeKey // this round's newly removed edges
	// Deleted counts the edges burned so far (experiment metric).
	Deleted int

	// Per-round scratch, kept so that a round allocates nothing. Node
	// x's undecided neighbors over surviving edges are
	// arcs[off[x]:off[x]+cnt[x]], in a row as long as x's base degree;
	// live lists the nodes whose row is not empty, ascending.
	undecided []bool
	alpha     []uint64
	off, cnt  []int32
	arcs      []stallArc
	live      []graph.NodeID
	winners   []graph.NodeID
}

// stallArc is one undecided neighbor y of a node, over the base edge of
// index e.
type stallArc struct {
	y graph.NodeID
	e int32
}

// init sizes the storage for Base: every later round reuses it.
func (a *LubyStaller) init() {
	n, m := a.Base.N(), a.Base.M()
	a.removed = make([]bool, m)
	a.burned = make([]graph.EdgeKey, 0, m)
	a.undecided = make([]bool, n)
	a.alpha = make([]uint64, n)
	a.off = make([]int32, n)
	a.cnt = make([]int32, n)
	a.arcs = make([]stallArc, 2*m)
	for v := range n {
		a.off[v] = int32(a.Base.CumDegree(v))
	}
	a.live = make([]graph.NodeID, 0, n)
	a.winners = make([]graph.NodeID, 0, n)
}

// row returns x's undecided neighbors.
func (a *LubyStaller) row(x graph.NodeID) []stallArc {
	return a.arcs[a.off[x] : a.off[x]+a.cnt[x]]
}

// Step implements Adversary.
func (a *LubyStaller) Step(v View) Step {
	if a.removed == nil {
		a.init()
	}
	n := a.Base.N()
	st := Step{}
	if v.Round() == 1 {
		st.Wake = AllNodes(n)
	}
	out := v.DelayedOutputs()
	for id := range a.undecided {
		// Round 1: everything is undecided.
		a.undecided[id] = out == nil || out[id] == problems.Bot
	}

	// Adjacency among undecided nodes in the surviving graph. The alpha
	// words and the (word, id) tie-break replicate DMis's comparison
	// bit-exactly.
	for id := int32(0); id < int32(n); id++ {
		a.alpha[id] = prf.AlphaWord(a.Seed, id, v.Round(), a.Purpose)
	}
	keys := a.Base.EdgeKeys()
	clear(a.cnt)
	for i, k := range keys {
		x, y := k.Nodes()
		if a.removed[i] || !a.undecided[x] || !a.undecided[y] {
			continue
		}
		a.arcs[a.off[x]+a.cnt[x]] = stallArc{y, int32(i)}
		a.cnt[x]++
		a.arcs[a.off[y]+a.cnt[y]] = stallArc{x, int32(i)}
		a.cnt[y]++
	}
	a.live = a.live[:0]
	for x := range a.cnt {
		if a.cnt[x] > 0 {
			a.live = append(a.live, graph.NodeID(x))
		}
	}

	a.burned = a.burned[:0]
	// Fixpoint: delete the undecided-incident edges of every would-be
	// winner; deletions can create new winners within the same round.
	// Two winners are never adjacent, so the order in which a pass
	// burns its winners' edges does not matter.
	for {
		a.winners = a.winners[:0]
		live := a.live[:0]
		for _, x := range a.live {
			if a.cnt[x] == 0 {
				continue
			}
			live = append(live, x)
			isMin := true
			for _, arc := range a.row(x) {
				if y := arc.y; a.alpha[y] < a.alpha[x] || (a.alpha[y] == a.alpha[x] && y < x) {
					isMin = false
					break
				}
			}
			if isMin {
				a.winners = append(a.winners, x)
			}
		}
		a.live = live
		if len(a.winners) == 0 {
			break
		}
		for _, x := range a.winners {
			for _, arc := range a.row(x) {
				if !a.removed[arc.e] {
					a.removed[arc.e] = true
					a.burned = append(a.burned, keys[arc.e])
					a.Deleted++
				}
				// Remove x from y's row.
				lst := a.row(arc.y)
				for i := range lst {
					if lst[i].y == x {
						lst[i] = lst[len(lst)-1]
						a.cnt[arc.y]--
						break
					}
				}
			}
			a.cnt[x] = 0
		}
	}

	if v.Round() > 1 {
		slices.Sort(a.burned)
		st.EdgeRemoves = a.burned
		return st
	}
	for i, k := range keys {
		if !a.removed[i] {
			st.EdgeAdds = append(st.EdgeAdds, k)
		}
	}
	// Base's keys are sorted, so EdgeAdds is sorted.
	return st
}
