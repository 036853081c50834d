package dyngraph

import (
	"fmt"
	"math"
	"math/bits"

	"dynlocal/internal/graph"
)

// FracWindow implements the δ-fraction window generalization proposed as
// future work in Section 7.2 of the paper: the graph G^{δ,T}_r contains the
// edges that were present in at least ⌈δ·W⌉ of the last W = min(r, T)
// observed rounds, for δ ∈ (0, 1]. δ = 1 recovers the intersection-style
// requirement "present in every round of the window" and δ → 0 approaches
// the union graph (any single appearance suffices).
//
// Presence is tracked as a per-edge rolling bitmask: bit i is set iff the
// edge was present i rounds ago, so bit 0 carries the current round's
// presence into the next one unless the round's diff removes the edge.
// The window size is limited to 64 rounds, which is not a practical
// restriction since the paper's windows are T = O(log n).
type FracWindow struct {
	t       int
	n       int
	round   int
	mask    map[graph.EdgeKey]uint64
	wake    []int
	scratch []graph.EdgeKey // reused by Graph materialization
}

// NewFracWindow creates a δ-fraction window of size 1 <= t <= 64.
func NewFracWindow(t, n int) *FracWindow {
	if t < 1 || t > 64 {
		panic(fmt.Sprintf("dyngraph: frac window size %d outside [1,64]", t))
	}
	return &FracWindow{t: t, n: n, mask: make(map[graph.EdgeKey]uint64), wake: make([]int, n)}
}

// T returns the window size.
func (w *FracWindow) T() int { return w.t }

// Round returns the last observed round.
func (w *FracWindow) Round() int { return w.round }

// ObserveEdgeDelta advances the window by one round's sorted topology
// diff and newly awake nodes, with the contract of
// Window.ObserveEdgeDelta: a diff graph.CheckDiff refuses, or an added
// edge touching a sleeping node, panics. Aging the masks costs
// O(|E^∪T|) per round.
//
//dynlint:sorted adds removes
func (w *FracWindow) ObserveEdgeDelta(adds, removes []graph.EdgeKey, wakeNow []graph.NodeID) {
	w.round++
	r := w.round
	if err := graph.CheckDiff(w.n, adds, removes, func(k graph.EdgeKey) bool { return w.mask[k]&1 != 0 }); err != nil {
		panic(fmt.Sprintf("dyngraph: round %d %v", r, err))
	}
	for _, v := range wakeNow {
		if w.wake[v] == 0 {
			w.wake[v] = r
		}
	}
	// Age all known edges by one round, carrying bit 0 (presence in the
	// previous round) into the new round's bit 0, and drop the ones that
	// left the window entirely. keep keeps the low t bits only.
	keep := ^uint64(0)
	if w.t < 64 {
		keep = (1 << uint(w.t)) - 1
	}
	for k, m := range w.mask {
		m = (m<<1 | m&1) & keep
		if m == 0 {
			delete(w.mask, k)
		} else {
			w.mask[k] = m
		}
	}
	for _, k := range adds {
		if u, v := k.Nodes(); w.wake[u] == 0 || w.wake[v] == 0 {
			panicSleepingEdge(u, v, r)
		}
		w.mask[k] |= 1
	}
	for _, k := range removes {
		w.mask[k] &^= 1 // a zero mask is dropped by the next aging
	}
}

// Count returns in how many of the windowed rounds the edge was present.
func (w *FracWindow) Count(u, v graph.NodeID) int {
	if u == v {
		return 0
	}
	return bits.OnesCount64(w.mask[graph.MakeEdgeKey(u, v)])
}

// fracTolerance absorbs the binary rounding of the product δ·T when
// computing ⌈δ·T⌉: products that are exact integers in decimal arithmetic
// (0.2·15 = 3) come out of float64 multiplication a few ulps high
// (3.0000000000000004) and a plain ceiling would inflate the threshold by
// one, silently dropping edges from G^{δ,T}. With T ≤ 64 the accumulated
// rounding error is below 2⁻⁴⁶, many orders of magnitude under this guard,
// while genuine fractions at the window sizes of interest (denominator
// ≤ T ≤ 64) sit at least 1/64 above the guarded integer.
const fracTolerance = 1e-9

// threshold returns the presence count required for inclusion at fraction
// delta: ⌈δ·T⌉, clamped to at least 1. The fraction is always taken over
// the full window size T; rounds before the sequence started count as
// absent (the paper's round 0 is the empty graph), so δ = 1 reproduces the
// intersection graph's empty-before-round-T behavior.
func (w *FracWindow) threshold(delta float64) int {
	th := int(math.Ceil(delta*float64(w.t) - fracTolerance))
	if th < 1 {
		th = 1
	}
	return th
}

// Graph materializes G^{δ,T}_r for the given δ ∈ (0, 1].
func (w *FracWindow) Graph(delta float64) *graph.Graph {
	if delta <= 0 || delta > 1 {
		panic(fmt.Sprintf("dyngraph: delta %v outside (0,1]", delta))
	}
	th := w.threshold(delta)
	keys := w.scratch[:0]
	for k, m := range w.mask {
		if bits.OnesCount64(m) >= th {
			keys = append(keys, k)
		}
	}
	w.scratch = keys
	return graph.FromEdges(w.n, keys)
}

// CoreNodes returns the nodes awake throughout the window, as for Window
// (empty before round T).
func (w *FracWindow) CoreNodes() []graph.NodeID {
	r0 := w.round - w.t + 1
	if r0 < 1 {
		return nil
	}
	var out []graph.NodeID
	for v := 0; v < w.n; v++ {
		if w.wake[v] != 0 && w.wake[v] <= r0 {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}
