package adversary

import (
	"fmt"
	"slices"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// Wakeup wraps an inner adversary with an asynchronous wake-up schedule
// (Section 2: V_0 = ∅ ⊆ V_1 ⊆ V_2 ⊆ …). Node v wakes in round
// Schedule[v] (1-based); edges of the inner topology incident to
// still-asleep nodes are suppressed. The inner adversary's own wake sets
// are ignored — the schedule is authoritative.
//
// A suppressed edge must appear when its second endpoint wakes, which
// the inner diff alone does not say, so Wakeup keeps the inner topology
// in a graph.DynAdj. Its diff is the inner diff restricted to awake
// endpoints, plus each waking node's inner edges to awake nodes.
type Wakeup struct {
	Inner    Adversary
	Schedule []int

	inner          *graph.DynAdj
	awake          []bool
	addBuf, remBuf []graph.EdgeKey
	// lastRound is the last round stepped — with Schedule it determines
	// the awake set, which is how a checkpoint restore rebuilds it.
	lastRound int
}

// Step implements Adversary.
func (w *Wakeup) Step(v View) Step {
	if w.awake == nil {
		w.awake = make([]bool, len(w.Schedule))
		w.inner = graph.NewDynAdj(len(w.Schedule))
	}
	r := v.Round()
	w.lastRound = r
	inner := w.Inner.Step(v)
	if err := w.inner.Apply(inner.EdgeAdds, inner.EdgeRemoves); err != nil {
		panic(fmt.Sprintf("adversary: Wakeup round %d inner step %v", r, err))
	}
	// Removes are filtered before this round's wake-ups: an edge was
	// played only if both endpoints were already awake.
	removes := w.remBuf[:0]
	for _, k := range inner.EdgeRemoves {
		if x, y := k.Nodes(); w.awake[x] && w.awake[y] {
			removes = append(removes, k)
		}
	}
	var wake []graph.NodeID
	for id, wr := range w.Schedule {
		if wr == r {
			w.awake[id] = true
			wake = append(wake, graph.NodeID(id))
		}
	}
	adds := w.addBuf[:0]
	for _, k := range inner.EdgeAdds {
		if x, y := k.Nodes(); w.awake[x] && w.awake[y] {
			adds = append(adds, k)
		}
	}
	if len(wake) > 0 {
		for _, x := range wake {
			for _, y := range w.inner.Neighbors(x) {
				if w.awake[y] {
					adds = append(adds, graph.MakeEdgeKey(x, y))
				}
			}
		}
		// An edge between two waking nodes, or one the inner adversary
		// also added this round, is listed twice.
		slices.Sort(adds)
		adds = slices.Compact(adds)
	}
	w.addBuf, w.remBuf = adds, removes
	return Step{Wake: wake, EdgeAdds: adds, EdgeRemoves: removes}
}

// StaggeredSchedule wakes perRound nodes per round in id order.
func StaggeredSchedule(n, perRound int) []int {
	if perRound < 1 {
		perRound = 1
	}
	sched := make([]int, n)
	for v := 0; v < n; v++ {
		sched[v] = v/perRound + 1
	}
	return sched
}

// UniformRandomSchedule wakes each node in a uniformly random round of
// [1, maxRound].
func UniformRandomSchedule(n, maxRound int, seed uint64) []int {
	if maxRound < 1 {
		maxRound = 1
	}
	s := prf.Make(seed, -2, 0, prf.PurposeAdversary)
	sched := make([]int, n)
	for v := range sched {
		sched[v] = 1 + s.Intn(maxRound)
	}
	return sched
}
