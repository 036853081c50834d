// Package dyngraph maintains the sliding-window views of a dynamic graph
// that define feasibility in the paper (Definition 2.1): the T-intersection
// graph G^∩T_r (edges present throughout the last T rounds, on the node set
// V^∩T_r of nodes awake for at least T rounds) and the T-union graph G^∪T_r
// (edges present at least once in the last T rounds). It also implements the
// δ-fraction generalization sketched as future work in Section 7.2, and a
// binary trace format for recording and replaying dynamic graph sequences.
//
// Window maintenance is delta-native: the windowed sets are maintained from
// per-round edge add/remove events, via streak bookkeeping and two ring
// buffers (scheduled intersection arrivals and union expiries), so the cost
// of a round is O(|adds| + |removes|) — it scales with how much the
// topology changed, not with how large the round graph is. The one feed,
// ObserveEdgeDelta(adds, removes, wakeNow), consumes a sorted topology diff
// directly (engine.RoundInfo.EdgeAdds/EdgeRemoves) and does no per-round
// work proportional to |E_r| at all.
//
// Besides answering membership queries and materializing the window
// graphs, the feed reports the round-over-round set differences of E^∩T,
// E^∪T and V^∩T as a Delta. Downstream checkers (internal/verify) consume
// the deltas to maintain violation state in O(changes·Δ) instead of
// rebuilding and rescanning the window graphs, which is the difference
// between O(#changes) and O(n+m) verification per round (cf. the
// incremental-maintenance framing of Censor-Hillel et al., "Fast
// Deterministic Algorithms for Highly-Dynamic Networks").
//
// Delta slices are sorted (ascending edge keys / node ids) and are
// internal buffers reused on the next ObserveEdgeDelta: observers may
// iterate them during the round but must copy anything they retain — the
// same pooling contract the engine uses for RoundInfo (internal/engine).
// Windows observe the same per-round topology the engine plays, so a
// checker can drive one window alongside the engine and pair these edge
// deltas with the engine's changed-output feed; internal/verify does
// exactly that, pushing both into the violation trackers of
// internal/problems. The equivalence of both the materialized graphs and
// the emitted deltas with the direct Definition 2.1 computation is
// property-tested against folds of graph.Intersection/Union over the
// window's round graphs.
package dyngraph

import (
	"fmt"
	"slices"

	"dynlocal/internal/graph"
)

// edgeSpan tracks an edge's presence streak: whether it is in the current
// round graph, when its current/most recent streak started, when it was
// last present (maintained only while absent — for a present edge the last
// round seen is implicitly the current round), and whether it is currently
// a member of the intersection graph E^∩T. The rounds are int32 so a span
// packs into 12 bytes; records write them as varints, and LoadDelta
// refuses rounds outside [0, record round].
type edgeSpan struct {
	lastSeen    int32
	streakStart int32
	present     bool
	inInter     bool
}

// Delta lists the round-over-round changes of the windowed sets after one
// ObserveEdgeDelta call. All slices are sorted ascending and alias buffers
// owned by the Window: they are valid until the next ObserveEdgeDelta and
// must be copied to be retained.
//
// CoreLeft is always empty in the paper's model — wake-ups are monotone
// (V_{r-1} ⊆ V_r) and the window start only advances, so V^∩T never loses
// nodes — but is part of the contract so observers need not encode that
// argument themselves.
//
//dynlint:loan
type Delta struct {
	Round int
	// CoreEntered lists nodes that joined V^∩T_r this round.
	CoreEntered []graph.NodeID
	// CoreLeft lists nodes that left V^∩T_r this round (never in this model).
	CoreLeft []graph.NodeID
	// InterAdded and InterRemoved list edges entering/leaving E^∩T_r.
	InterAdded, InterRemoved []graph.EdgeKey
	// UnionAdded and UnionRemoved list edges entering/leaving E^∪T_r.
	UnionAdded, UnionRemoved []graph.EdgeKey
}

// Window incrementally maintains G^∩T_r and G^∪T_r over an observed round
// sequence. Rounds are 1-based: the first observation is round 1 and
// round 0 is the empty graph G_0 = (∅, ∅) of the model.
//
// Invariant: after every observation, the spans table holds exactly the
// edges of E^∪T_r (present edges are always union members), and an
// edgeSpan's inInter flag holds exactly for E^∩T_r.
type Window struct {
	t       int
	n       int
	round   int
	spans   graph.EdgeTable[edgeSpan]
	wake    []int           // wake[v] = round v woke up, 0 if still asleep
	scratch []graph.EdgeKey // sorted span keys of the walks, and the radix
	sortTmp []graph.EdgeKey // sort's buffer, reused across walks and records

	// Ring buffers, both with one slot per window offset. expiry[j%t]
	// holds edges whose presence streak ended in round j — pushed when the
	// edge drops out of the round graph, examined exactly once t rounds
	// later when the streak's last round leaves the union window.
	// pending[(a+t-1)%t] holds edges whose streak started in round a —
	// examined in round a+t-1, when an unbroken streak has covered the
	// whole window and the edge joins E^∩T. byWake buckets woken nodes by
	// wake round; bucket r0 is consumed (the nodes join V^∩T) in round
	// r0+t-1.
	expiry  [][]graph.EdgeKey
	pending [][]graph.EdgeKey
	byWake  map[int][]graph.NodeID
	delta   Delta

	// Delta-checkpoint tracking (see checkpoint.go), enabled by the first
	// NoteCheckpoint call: which spans, wake entries, ring slots and wake
	// buckets moved since the last noted checkpoint record. Windows that
	// never join a checkpoint chain pay nothing — every mark site is
	// guarded by track.
	track        bool
	dirtySpans   graph.EdgeTable[struct{}]
	dirtyWake    []graph.NodeID
	dirtyExpiry  []bool
	dirtyPending []bool
	dirtyByWake  map[int]struct{}
	saveRounds   []int // SaveDelta's bucket rounds, reused across records
}

// NewWindow creates a window of size t >= 1 over a node universe of size n.
func NewWindow(t, n int) *Window {
	if t < 1 {
		panic(fmt.Sprintf("dyngraph: window size %d < 1", t))
	}
	return &Window{
		t:       t,
		n:       n,
		wake:    make([]int, n),
		expiry:  make([][]graph.EdgeKey, t),
		pending: make([][]graph.EdgeKey, t),
		byWake:  make(map[int][]graph.NodeID),
	}
}

// T returns the window size.
func (w *Window) T() int { return w.t }

// N returns the node-universe size.
func (w *Window) N() int { return w.n }

// Round returns the last observed round (0 before the first observation).
func (w *Window) Round() int { return w.round }

// windowStart returns r0 = max(0, r-T+1) as in Definition 2.1 (the paper's
// round 0 carries the empty graph G_0 = (∅, ∅); our observations are rounds
// 1, 2, …). When r0 == 0 the window still contains the empty round 0, so
// the intersection graph and the core node set are empty until round T,
// exactly as in the proof of Theorem 1.1 ("If r < T1−1, the graphs G^∩T1_r
// and G^∪T1_r are both empty as no node has been awake for T1 rounds").
func (w *Window) windowStart() int {
	r0 := w.round - w.t + 1
	if r0 < 0 {
		r0 = 0
	}
	return r0
}

// ObserveEdgeDelta advances the window to the next round by a sorted
// topology diff and reports the membership changes of E^∩T, E^∪T and V^∩T
// relative to the previous round. adds and removes must be strictly
// ascending edge-key lists describing exactly the edges entering and
// leaving the round graph relative to the previous round (for the first
// observation, adds is the entire round-1 edge set); wakeNow lists the
// newly awake nodes. Per-round cost is O(|adds| + |removes| + |wakeNow|),
// independent of |E_r|. A diff that breaks the edge-diff contract
// (graph.CheckDiff, against G_{r-1}) panics naming the round, as does an
// added edge touching a node still asleep after wakeNow is applied — the
// model only allows edges between awake nodes.
// The returned Delta aliases buffers reused by the next call; copy
// anything retained beyond the round.
//
//dynlint:sorted adds removes
func (w *Window) ObserveEdgeDelta(adds, removes []graph.EdgeKey, wakeNow []graph.NodeID) *Delta {
	w.round++
	r := w.round
	d := &w.delta
	d.Round = r
	d.CoreEntered = d.CoreEntered[:0]
	d.CoreLeft = d.CoreLeft[:0]
	d.InterAdded = d.InterAdded[:0]
	d.InterRemoved = d.InterRemoved[:0]
	d.UnionAdded = d.UnionAdded[:0]
	d.UnionRemoved = d.UnionRemoved[:0]
	if err := graph.CheckDiff(w.n, adds, removes, func(k graph.EdgeKey) bool {
		sp, ok := w.spans.Get(k)
		return ok && sp.present
	}); err != nil {
		panic(fmt.Sprintf("dyngraph: round %d %v", r, err))
	}

	for _, v := range wakeNow {
		if w.wake[v] == 0 {
			w.wake[v] = r
			w.byWake[r] = append(w.byWake[r], v)
			if w.track {
				w.dirtyWake = append(w.dirtyWake, v)
				w.dirtyByWake[r] = struct{}{}
			}
		}
	}

	// Edges entering G_r: fresh streak, union membership (spans holds
	// exactly E^∪T, so presence in the table is the membership test), and a
	// scheduled intersection arrival t-1 rounds out. Edges that persist
	// from G_{r-1} are never touched — that is the whole point.
	//
	// Each output list grows at most by its input list, so growing it
	// once up front spares a large diff (round 1's whole edge set) the
	// doubling copies.
	pend := slices.Grow(w.pending[(r+w.t-1)%w.t], len(adds))
	d.UnionAdded = slices.Grow(d.UnionAdded, len(adds))
	w.spans.Reserve(w.spans.Len() + len(adds))
	for _, k := range adds {
		u, v := k.Nodes()
		if w.wake[u] == 0 || w.wake[v] == 0 {
			panicSleepingEdge(u, v, r)
		}
		sp, ok := w.spans.Get(k)
		if !ok {
			d.UnionAdded = append(d.UnionAdded, k)
		}
		sp.present = true
		sp.streakStart = int32(r)
		w.spans.Put(k, sp)
		pend = append(pend, k)
		if w.track {
			w.dirtySpans.Put(k, struct{}{})
		}
	}
	w.pending[(r+w.t-1)%w.t] = pend
	if w.track && len(adds) > 0 {
		w.dirtyPending[(r+w.t-1)%w.t] = true
	}

	// Edges leaving G_r: the streak ended in round r-1, which breaks
	// intersection membership now and schedules union expiry for round
	// r-1+t.
	push := slices.Grow(w.expiry[(r-1)%w.t], len(removes))
	d.InterRemoved = slices.Grow(d.InterRemoved, len(removes))
	for _, k := range removes {
		sp, _ := w.spans.Get(k)
		sp.present = false
		sp.lastSeen = int32(r - 1)
		if sp.inInter {
			sp.inInter = false
			d.InterRemoved = append(d.InterRemoved, k)
		}
		w.spans.Put(k, sp)
		push = append(push, k)
		if w.track {
			w.dirtySpans.Put(k, struct{}{})
		}
	}
	w.expiry[(r-1)%w.t] = push
	if w.track && len(removes) > 0 {
		w.dirtyExpiry[(r-1)%w.t] = true
	}

	// Union expiry: edges whose last streak ended in round r-t leave E^∪T
	// now. Entries whose edge was re-observed since are stale (present, or
	// a younger expiry entry exists) and are skipped by the checks. Each
	// slot holds exactly one round's removals, so the emitted list is
	// sorted.
	slot := w.expiry[r%w.t]
	if len(slot) > 0 {
		d.UnionRemoved = slices.Grow(d.UnionRemoved, len(slot))
		for _, k := range slot {
			if sp, ok := w.spans.Get(k); ok && !sp.present && int(sp.lastSeen) == r-w.t {
				w.spans.Delete(k)
				d.UnionRemoved = append(d.UnionRemoved, k)
				if w.track {
					w.dirtySpans.Put(k, struct{}{})
				}
			}
		}
		w.expiry[r%w.t] = slot[:0]
		if w.track {
			w.dirtyExpiry[r%w.t] = true
		}
	}

	// Intersection arrivals: edges whose streak started in round r-t+1
	// have now been present in every round the window spans (including
	// the paper's empty round 0 constraint: a streak from round a enters
	// at a+t-1 >= t). Stale entries — streak broken or restarted since —
	// fail the streakStart check. One round's additions per slot, so the
	// emitted list is sorted.
	pslot := w.pending[r%w.t]
	if len(pslot) > 0 {
		a0 := r - w.t + 1
		d.InterAdded = slices.Grow(d.InterAdded, len(pslot))
		for _, k := range pslot {
			if sp, ok := w.spans.Get(k); ok && sp.present && int(sp.streakStart) == a0 && !sp.inInter {
				sp.inInter = true
				w.spans.Put(k, sp)
				d.InterAdded = append(d.InterAdded, k)
				if w.track {
					w.dirtySpans.Put(k, struct{}{})
				}
			}
		}
		w.pending[r%w.t] = pslot[:0]
		if w.track {
			w.dirtyPending[r%w.t] = true
		}
	}

	// Core arrivals: nodes woken in round r0 have now been awake for t
	// rounds. r0 advances by exactly one per round once r >= t, so every
	// wake bucket is consumed exactly once.
	if r >= w.t {
		r0 := w.windowStart()
		if nodes := w.byWake[r0]; len(nodes) > 0 {
			slices.Sort(nodes)
			d.CoreEntered = append(d.CoreEntered, nodes...)
			delete(w.byWake, r0)
			if w.track {
				w.dirtyByWake[r0] = struct{}{}
			}
		}
	}
	return d
}

// panicSleepingEdge is the cold path for model violations, hoisted out of
// the add loop so the hot path carries no fmt machinery.
func panicSleepingEdge(u, v graph.NodeID, r int) {
	panic(fmt.Sprintf("dyngraph: edge {%d,%d} touches a sleeping node in round %d", u, v, r))
}

// AwakeSince reports the round node v woke up, or 0 if asleep.
func (w *Window) AwakeSince(v graph.NodeID) int { return w.wake[v] }

// CoreNodes returns V^∩T_r: the nodes awake in every round of the current
// window. Because the paper's round 0 has V_0 = ∅, the set is empty until
// round T. Sorted ascending.
func (w *Window) CoreNodes() []graph.NodeID {
	r0 := w.windowStart()
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

// InCore reports whether v ∈ V^∩T_r.
func (w *Window) InCore(v graph.NodeID) bool {
	r0 := w.windowStart()
	return r0 >= 1 && w.wake[v] != 0 && w.wake[v] <= r0
}

// InIntersection reports whether {u,v} ∈ E^∩T_r. Empty until round T
// (the window still contains the paper's empty round 0 before that).
func (w *Window) InIntersection(u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	sp, _ := w.spans.Get(graph.MakeEdgeKey(u, v))
	return sp.inInter
}

// InUnion reports whether {u,v} ∈ E^∪T_r.
func (w *Window) InUnion(u, v graph.NodeID) bool {
	if u == v {
		return false
	}
	return w.spans.Has(graph.MakeEdgeKey(u, v))
}

// sortedSpanKeys returns the keys of E^∪T_r ascending, in the window's
// scratch (valid until the next walk).
func (w *Window) sortedSpanKeys() []graph.EdgeKey {
	w.scratch, w.sortTmp = w.spans.AppendSortedKeys(w.scratch[:0], w.sortTmp)
	return w.scratch
}

// WalkUnion calls fn for every edge of E^∪T_r in ascending key order,
// with whether the edge is also in E^∩T_r.
func (w *Window) WalkUnion(fn func(k graph.EdgeKey, inInter bool)) {
	for _, k := range w.sortedSpanKeys() {
		sp, _ := w.spans.Get(k)
		fn(k, sp.inInter)
	}
}

// IntersectionGraph materializes G^∩T_r (empty before round T). The key
// scratch buffer is reused across calls; the returned graph is fresh.
func (w *Window) IntersectionGraph() *graph.Graph {
	keys := w.sortedSpanKeys()
	inter := keys[:0]
	for _, k := range keys {
		if sp, _ := w.spans.Get(k); sp.inInter {
			inter = append(inter, k)
		}
	}
	return graph.FromSortedEdges(w.n, inter)
}

// UnionGraph materializes G^∪T_r (all edges seen within the window; the
// covering checker evaluates it on CoreNodes, matching Definition 2.1's
// vertex set V^∩T_r).
func (w *Window) UnionGraph() *graph.Graph {
	return graph.FromSortedEdges(w.n, w.sortedSpanKeys())
}

// Full reports whether the window spans t observed rounds, i.e. whether
// guarantees that need a full window are in force.
func (w *Window) Full() bool { return w.round >= w.t }

// Stats summarizes the current window; used by experiment reporting.
type Stats struct {
	Round             int
	CoreNodes         int
	IntersectionEdges int
	UnionEdges        int
}

// Stats computes the current summary.
func (w *Window) Stats() Stats {
	st := Stats{Round: w.round, UnionEdges: w.spans.Len()}
	w.WalkUnion(func(_ graph.EdgeKey, inInter bool) {
		if inInter {
			st.IntersectionEdges++
		}
	})
	st.CoreNodes = len(w.CoreNodes())
	return st
}
