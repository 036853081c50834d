package dyngraph

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dynlocal/internal/graph"
)

// The delta feed (ObserveEdgeDelta) must agree with the direct
// Definition 2.1 computation (defRef below). These tests drive the window
// and the reference over identical schedules — including staggered
// wake-ups, T boundary rounds and edges flapping on the expiry boundary —
// and compare every emitted Delta, the materialized graphs, the core set
// and the stats.

// deltaSchedule maintains a mutable edge set over awake nodes and yields
// consistent (adds, removes, graph) rounds.
type deltaSchedule struct {
	n       int
	present map[graph.EdgeKey]bool
	awake   []bool
}

func newDeltaSchedule(n int) *deltaSchedule {
	return &deltaSchedule{n: n, present: make(map[graph.EdgeKey]bool), awake: make([]bool, n)}
}

// toggle flips edge {u,v} into adds or removes.
func (s *deltaSchedule) round(toggles []graph.EdgeKey) (adds, removes []graph.EdgeKey, g *graph.Graph) {
	seen := make(map[graph.EdgeKey]bool)
	for _, k := range toggles {
		if seen[k] {
			continue
		}
		seen[k] = true
		if s.present[k] {
			delete(s.present, k)
			removes = append(removes, k)
		} else {
			u, v := k.Nodes()
			if !s.awake[u] || !s.awake[v] {
				continue
			}
			s.present[k] = true
			adds = append(adds, k)
		}
	}
	sortEdgeKeys(adds)
	sortEdgeKeys(removes)
	keys := make([]graph.EdgeKey, 0, len(s.present))
	for k := range s.present {
		keys = append(keys, k)
	}
	sortEdgeKeys(keys)
	return adds, removes, graph.FromSortedEdges(s.n, keys)
}

func sortEdgeKeys(ks []graph.EdgeKey) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func copyDelta(d *Delta) Delta {
	return Delta{
		Round:        d.Round,
		CoreEntered:  append([]graph.NodeID(nil), d.CoreEntered...),
		CoreLeft:     append([]graph.NodeID(nil), d.CoreLeft...),
		InterAdded:   append([]graph.EdgeKey(nil), d.InterAdded...),
		InterRemoved: append([]graph.EdgeKey(nil), d.InterRemoved...),
		UnionAdded:   append([]graph.EdgeKey(nil), d.UnionAdded...),
		UnionRemoved: append([]graph.EdgeKey(nil), d.UnionRemoved...),
	}
}

// defRef recomputes the window from first principles every round: G^∩T
// and G^∪T with directWindows over the full graph history, V^∩T from the
// wake history, and the expected Delta as the set differences between
// consecutive rounds.
type defRef struct {
	t            int
	history      []*graph.Graph
	wake         []int // wake[v] = round v woke up, 0 if still asleep
	inter, union *graph.Graph
	core         []graph.NodeID
}

func newDefRef(t, n int) *defRef {
	return &defRef{t: t, wake: make([]int, n), inter: graph.Empty(n), union: graph.Empty(n)}
}

// observe appends the next round's graph and wake set and returns the
// Delta the window must emit.
func (ref *defRef) observe(g *graph.Graph, wake []graph.NodeID) Delta {
	ref.history = append(ref.history, g)
	r := len(ref.history)
	for _, v := range wake {
		if ref.wake[v] == 0 {
			ref.wake[v] = r
		}
	}
	inter, union := directWindows(ref.history, ref.t)
	var core, entered []graph.NodeID
	if r0 := r - ref.t + 1; r0 >= 1 {
		for v, w := range ref.wake {
			if w != 0 && w <= r0 {
				core = append(core, graph.NodeID(v))
				if w == r0 {
					entered = append(entered, graph.NodeID(v))
				}
			}
		}
	}
	d := Delta{Round: r, CoreEntered: entered}
	d.InterAdded, d.InterRemoved = graph.DiffSortedKeys(ref.inter.EdgeKeys(), inter.EdgeKeys(), nil, nil)
	d.UnionAdded, d.UnionRemoved = graph.DiffSortedKeys(ref.union.EdgeKeys(), union.EdgeKeys(), nil, nil)
	ref.inter, ref.union, ref.core = inter, union, core
	return d
}

// check compares the window's emitted delta and state with the reference.
func (ref *defRef) check(t *testing.T, want Delta, got *Delta, w *Window) {
	t.Helper()
	round := want.Round
	if d := copyDelta(got); !reflect.DeepEqual(want, d) {
		t.Fatalf("round %d: deltas diverge\nwant %+v\ngot  %+v", round, want, d)
	}
	if !ref.inter.Equal(w.IntersectionGraph()) {
		t.Fatalf("round %d: intersection graphs diverge", round)
	}
	if !ref.union.Equal(w.UnionGraph()) {
		t.Fatalf("round %d: union graphs diverge", round)
	}
	st := Stats{Round: round, CoreNodes: len(ref.core), IntersectionEdges: ref.inter.M(), UnionEdges: ref.union.M()}
	if st != w.Stats() {
		t.Fatalf("round %d: stats diverge: %+v vs %+v", round, st, w.Stats())
	}
	if wc := w.CoreNodes(); !reflect.DeepEqual(ref.core, wc) {
		t.Fatalf("round %d: core %v vs %v", round, ref.core, wc)
	}
}

// TestWindowDeltaFeedMatchesScanFeed crosses window sizes (including the
// T=1 boundary where arrival and expiry collapse into the same round) with
// staggered wake-ups and churn-heavy schedules.
func TestWindowDeltaFeedMatchesScanFeed(t *testing.T) {
	for _, T := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprintf("T=%d", T), func(t *testing.T) {
			const n = 20
			s := wstream(uint64(40 + T))
			sched := newDeltaSchedule(n)
			ref := newDefRef(T, n)
			delta := NewWindow(T, n)
			for round := 1; round <= 6*T+12; round++ {
				// Wake four nodes per round until all are awake — core
				// arrivals then straddle several T boundaries.
				var wake []graph.NodeID
				for i := 0; i < 4; i++ {
					v := graph.NodeID((round-1)*4 + i)
					if int(v) < n {
						wake = append(wake, v)
						sched.awake[v] = true
					}
				}
				var toggles []graph.EdgeKey
				for i := 0; i < 3+s.Intn(8); i++ {
					u := graph.NodeID(s.Intn(n))
					v := graph.NodeID(s.Intn(n))
					if u != v {
						toggles = append(toggles, graph.MakeEdgeKey(u, v))
					}
				}
				adds, removes, g := sched.round(toggles)
				want := ref.observe(g, wake)
				ref.check(t, want, delta.ObserveEdgeDelta(adds, removes, wake), delta)
			}
		})
	}
}

// TestWindowDeltaFeedExpiryBoundary flaps a single edge so that its
// removal, re-addition and union expiry land exactly on ring-slot reuse
// rounds.
func TestWindowDeltaFeedExpiryBoundary(t *testing.T) {
	const n = 4
	const T = 3
	k := graph.MakeEdgeKey(0, 1)
	addsOf := func(on bool) ([]graph.EdgeKey, []graph.EdgeKey) {
		if on {
			return []graph.EdgeKey{k}, nil
		}
		return nil, []graph.EdgeKey{k}
	}
	// Pattern: on, off, on, off, off, off (expire), on, on, on (inter).
	pattern := []bool{true, false, true, false, false, false, true, true, true, true}
	ref := newDefRef(T, n)
	delta := NewWindow(T, n)
	prevOn := false
	for i, on := range pattern {
		wake := []graph.NodeID{}
		if i == 0 {
			wake = []graph.NodeID{0, 1, 2, 3}
		}
		var g *graph.Graph
		if on {
			g = graph.FromEdges(n, []graph.EdgeKey{k})
		} else {
			g = graph.Empty(n)
		}
		var adds, removes []graph.EdgeKey
		if on != prevOn {
			adds, removes = addsOf(on)
		}
		prevOn = on
		want := ref.observe(g, wake)
		ref.check(t, want, delta.ObserveEdgeDelta(adds, removes, wake), delta)
	}
}

// badDeltas are diffs that break the delta-feed contract once round 1
// has added {0,1} with nodes 0 and 1 awake in a 4-node universe; both
// windows must panic on each with the message want.
var badDeltas = []struct {
	name          string
	adds, removes []graph.EdgeKey
	wake          []graph.NodeID
	want          string
}{
	{"sleeping-endpoint", []graph.EdgeKey{graph.MakeEdgeKey(2, 3)}, nil, nil,
		"dyngraph: edge {2,3} touches a sleeping node in round 2"},
	{"add-present", []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil, nil,
		"dyngraph: round 2 adds edge {0,1}, which is present"},
	{"remove-absent", nil, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}, nil,
		"dyngraph: round 2 removes edge {0,2}, which is absent"},
	{"adds-unsorted", []graph.EdgeKey{graph.MakeEdgeKey(0, 3), graph.MakeEdgeKey(0, 2)}, nil, []graph.NodeID{2, 3},
		"dyngraph: round 2 adds not strictly ascending at {0,2}"},
	{"key-out-of-range", []graph.EdgeKey{graph.MakeEdgeKey(1, 9)}, nil, nil,
		"dyngraph: round 2 adds edge {1,9} outside universe [0,4)"},
	// An absent edge in both lists: an add-then-remove fold would put
	// it in the union window although no round held it.
	{"phantom", []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}, []graph.NodeID{2},
		"dyngraph: round 2 lists edge {0,2} as both added and removed"},
	{"mirror", []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil,
		"dyngraph: round 2 lists edge {0,1} as both added and removed"},
}

// checkBadDeltas runs every badDeltas case through observe on a fresh
// window that has played round 1, and requires the case's panic.
func checkBadDeltas(t *testing.T, observe func() func(adds, removes []graph.EdgeKey, wake []graph.NodeID)) {
	for _, tc := range badDeltas {
		t.Run(tc.name, func(t *testing.T) {
			obs := observe()
			obs([]graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil, []graph.NodeID{0, 1})
			defer func() {
				if msg := recover(); msg != tc.want {
					t.Fatalf("panic %v, want %q", msg, tc.want)
				}
			}()
			obs(tc.adds, tc.removes, tc.wake)
		})
	}
}

// TestWindowDeltaFeedValidation pins the delta feed's input checks.
func TestWindowDeltaFeedValidation(t *testing.T) {
	checkBadDeltas(t, func() func(adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		w := NewWindow(2, 4)
		return func(adds, removes []graph.EdgeKey, wake []graph.NodeID) { w.ObserveEdgeDelta(adds, removes, wake) }
	})
}

// TestFracWindowDeltaFeedValidation pins that FracWindow's feed checks
// its input exactly as Window's does.
func TestFracWindowDeltaFeedValidation(t *testing.T) {
	checkBadDeltas(t, func() func(adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		return NewFracWindow(2, 4).ObserveEdgeDelta
	})
}

// FuzzWindowDeltaFeed interprets fuzz bytes as a toggle/wake schedule over
// a small universe and requires the delta feed to agree with the
// Definition 2.1 reference on every emitted Delta and on the materialized
// windows, for fuzzer-chosen window sizes. A FracWindow fed the same
// diffs must agree with the direct δ-fraction computation on every
// pair's Count and on G^{δ,T} for a few δ.
func FuzzWindowDeltaFeed(f *testing.F) {
	f.Add(uint8(3), []byte{0x01, 0x12, 0x23, 0x05, 0x12, 0xff, 0x30})
	f.Add(uint8(1), []byte{0x10, 0x10, 0x10})
	f.Add(uint8(8), bytes.Repeat([]byte{0x21, 0x43, 0x07}, 20))
	// Wakes nodes 0-3 in round 1, then adds, keeps and removes edges
	// among them.
	f.Add(uint8(4), []byte{0x00, 0x11, 0x22, 0x33, 0x01, 0x12, 0x23, 0x03, 0x01, 0x02, 0x13, 0x12, 0x01, 0x23})
	f.Fuzz(func(t *testing.T, tRaw uint8, data []byte) {
		const n = 8
		T := int(tRaw%8) + 1
		sched := newDeltaSchedule(n)
		ref := newDefRef(T, n)
		delta := NewWindow(T, n)
		frac := NewFracWindow(T, n)
		var history []*graph.Graph
		pos := 0
		for round := 1; round <= 24 && pos < len(data); round++ {
			var wake []graph.NodeID
			var toggles []graph.EdgeKey
			// Consume up to 4 bytes per round: high nibble / low nibble are
			// node ids; equal nibbles wake the node instead of toggling.
			for b := 0; b < 4 && pos < len(data); b++ {
				u := graph.NodeID(data[pos] >> 4 & 7)
				v := graph.NodeID(data[pos] & 7)
				pos++
				if u == v {
					if !sched.awake[u] {
						sched.awake[u] = true
						wake = append(wake, u)
					}
					continue
				}
				toggles = append(toggles, graph.MakeEdgeKey(u, v))
			}
			adds, removes, g := sched.round(toggles)
			want := ref.observe(g, wake)
			ref.check(t, want, delta.ObserveEdgeDelta(adds, removes, wake), delta)
			frac.ObserveEdgeDelta(adds, removes, wake)
			history = append(history, g)
			checkFracWindow(t, frac, history)
		}
	})
}

// checkFracWindow compares a FracWindow that observed history with the
// direct computation: every pair's Count over the last T rounds, and
// G^{δ,T} for δ ∈ {0.2, 0.5, 1}.
func checkFracWindow(t *testing.T, w *FracWindow, history []*graph.Graph) {
	t.Helper()
	r := len(history)
	n := history[0].N()
	for u := graph.NodeID(0); int(u) < n; u++ {
		for v := u + 1; int(v) < n; v++ {
			want := 0
			for _, g := range history[max(0, r-w.T()):] {
				if g.HasEdge(u, v) {
					want++
				}
			}
			if got := w.Count(u, v); got != want {
				t.Fatalf("round %d: Count(%d,%d) = %d, want %d", r, u, v, got, want)
			}
		}
	}
	for _, d := range []float64{0.2, 0.5, 1} {
		if got, want := w.Graph(d), directFracGraph(history, w.T(), d); !got.Equal(want) {
			t.Fatalf("round %d δ=%v: G^{δ,T} differs\ngot  %s\nwant %s", r, d, got.DebugString(), want.DebugString())
		}
	}
}
