package dyngraph

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// randomToggles draws a PRF-deterministic toggle schedule over the woken
// prefix of the universe, waking a few more nodes each round.
func randomToggles(s *deltaSchedule, seed uint64, round int) []graph.EdgeKey {
	str := prf.NewStream(seed, -2, round, prf.PurposeWorkload)
	wakeUpTo := min(s.n, 4+3*round)
	for v := 0; v < wakeUpTo; v++ {
		s.awake[v] = true
	}
	var toggles []graph.EdgeKey
	for i := 0; i < s.n/2; i++ {
		u := graph.NodeID(str.Intn(wakeUpTo))
		v := graph.NodeID(str.Intn(wakeUpTo))
		if u == v {
			continue
		}
		toggles = append(toggles, graph.MakeEdgeKey(u, v))
	}
	return toggles
}

// wakeList returns the nodes newly awake this round under randomToggles'
// staggered schedule.
func wakeList(n, round int) []graph.NodeID {
	lo, hi := 4+3*(round-1), min(n, 4+3*round)
	if round == 1 {
		lo = 0
	}
	var ws []graph.NodeID
	for v := lo; v < hi; v++ {
		ws = append(ws, graph.NodeID(v))
	}
	return ws
}

// TestWindowCheckpointRoundTrip drives a window to round k, serializes
// it, restores into a fresh window and requires every subsequent Delta,
// membership query and materialized graph to match the uninterrupted
// window — for window sizes including the T=1 boundary, fed either the
// schedule's diffs directly ("delta") or its full round graphs diffed by
// graphFed ("scan").
func TestWindowCheckpointRoundTrip(t *testing.T) {
	const n = 32
	const rounds = 20
	for _, mode := range []string{"delta", "scan"} {
		for _, T := range []int{1, 4, 7} {
			for _, k := range []int{0, 1, 5, T, rounds - 1} {
				t.Run(fmt.Sprintf("%s/t=%d/k=%d", mode, T, k), func(t *testing.T) {
					ref := newGraphFed(T, n)
					sched := newDeltaSchedule(n)
					var ckBytes []byte
					snapshot := func() []byte {
						w := ckpt.NewWriter(nil)
						ref.SaveDelta(w, true)
						if err := w.Close(); err != nil {
							t.Fatalf("save: %v", err)
						}
						return w.Bytes()
					}
					if k == 0 {
						ckBytes = snapshot()
					}
					type roundData struct {
						d     Delta
						stats Stats
					}
					var tailRef []roundData
					for r := 1; r <= rounds; r++ {
						adds, removes, g := sched.round(randomToggles(sched, 7, r))
						var d *Delta
						if mode == "delta" {
							d = ref.ObserveEdgeDelta(adds, removes, wakeList(n, r))
						} else {
							d = ref.Observe(g, wakeList(n, r))
						}
						if r > k {
							tailRef = append(tailRef, roundData{copyDelta(d), ref.Stats()})
						}
						if r == k {
							ckBytes = snapshot()
						}
					}

					res := newGraphFed(T, n)
					r := ckpt.NewReader(ckBytes)
					res.LoadDelta(r, true)
					if err := r.Close(); err != nil {
						t.Fatalf("load: %v", err)
					}
					if res.Round() != k {
						t.Fatalf("restored round %d, want %d", res.Round(), k)
					}
					sched2 := newDeltaSchedule(n)
					for r := 1; r <= rounds; r++ {
						adds, removes, g := sched2.round(randomToggles(sched2, 7, r))
						if r <= k {
							// Schedule replay only; the window starts at k.
							res.prev = append(res.prev[:0], g.EdgeKeys()...)
							continue
						}
						var d *Delta
						if mode == "delta" {
							d = res.ObserveEdgeDelta(adds, removes, wakeList(n, r))
						} else {
							d = res.Observe(g, wakeList(n, r))
						}
						got := roundData{copyDelta(d), res.Stats()}
						want := tailRef[r-k-1]
						if !reflect.DeepEqual(got.d, want.d) {
							t.Fatalf("round %d: delta diverges\ngot  %+v\nwant %+v", r, got.d, want.d)
						}
						if got.stats != want.stats {
							t.Fatalf("round %d: stats %+v vs %+v", r, got.stats, want.stats)
						}
					}
				})
			}
		}
	}
}

// TestWindowCheckpointDeterministicBytes requires two snapshots of
// identical windows to be byte-identical.
func TestWindowCheckpointDeterministicBytes(t *testing.T) {
	const n = 24
	mk := func() []byte {
		w := NewWindow(3, n)
		sched := newDeltaSchedule(n)
		for r := 1; r <= 9; r++ {
			adds, removes, _ := sched.round(randomToggles(sched, 5, r))
			w.ObserveEdgeDelta(adds, removes, wakeList(n, r))
		}
		cw := ckpt.NewWriter(nil)
		w.SaveDelta(cw, true)
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		return cw.Bytes()
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatalf("snapshots of identical windows differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestWindowLoadStateRejects pins the restore-side validation.
func TestWindowLoadStateRejects(t *testing.T) {
	const n = 16
	w := NewWindow(3, n)
	sched := newDeltaSchedule(n)
	for r := 1; r <= 5; r++ {
		adds, removes, _ := sched.round(randomToggles(sched, 3, r))
		w.ObserveEdgeDelta(adds, removes, wakeList(n, r))
	}
	cw := ckpt.NewWriter(nil)
	w.SaveDelta(cw, true)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	ck := cw.Bytes()

	load := func(dst *Window, b []byte) error {
		r := ckpt.NewReader(b)
		dst.LoadDelta(r, true)
		if err := r.Err(); err != nil {
			return err
		}
		return r.Close()
	}
	if err := load(NewWindow(4, n), ck); err == nil {
		t.Fatal("restore into different window size succeeded")
	}
	if err := load(NewWindow(3, n+1), ck); err == nil {
		t.Fatal("restore into different universe succeeded")
	}
	used := NewWindow(3, n)
	used.ObserveEdgeDelta(nil, nil, []graph.NodeID{0, 1})
	if err := load(used, ck); err == nil {
		t.Fatal("restore into used window succeeded")
	}
	for cut := 0; cut < len(ck); cut += 13 {
		if err := load(NewWindow(3, n), ck[:cut]); err == nil {
			t.Fatalf("restore of %d-byte prefix succeeded", cut)
		}
	}

	// Span rounds must lie in [0, record round] (round 5 here): spans
	// hold them as int32.
	key := w.sortedSpanKeys()[0]
	for _, sp := range []edgeSpan{{lastSeen: -1}, {lastSeen: 6}, {streakStart: -1, present: true}, {streakStart: 6, present: true}} {
		forged := NewWindow(3, n)
		if err := load(forged, ck); err != nil {
			t.Fatal(err)
		}
		forged.spans.Put(key, sp)
		cw := ckpt.NewWriter(nil)
		forged.SaveDelta(cw, true)
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := load(NewWindow(3, n), cw.Bytes()); err == nil || !strings.Contains(err.Error(), "outside [0,5]") {
			t.Fatalf("span %+v restored with err = %v, want a rounds-range error", sp, err)
		}
	}

	// A base only restores into a fresh window, and a delta only onto a
	// restored base.
	base := NewWindow(3, n)
	if err := load(base, ck); err != nil {
		t.Fatal(err)
	}
	base.NoteCheckpoint()
	if err := load(base, ck); err == nil {
		t.Fatal("base record restored over a noted base")
	}
	cw = ckpt.NewWriter(nil)
	base.SaveDelta(cw, false)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(cw.Bytes())
	NewWindow(3, n).LoadDelta(r, false)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "without a restored base") {
		t.Fatalf("delta record onto a fresh window: err = %v, want a missing-base error", err)
	}
}

// TestWindowCheckTopology accepts the topology a window was fed and
// rejects one with an edge or a woken node more or less.
func TestWindowCheckTopology(t *testing.T) {
	const n = 16
	w := NewWindow(3, n)
	sched := newDeltaSchedule(n)
	var g *graph.Graph
	for r := 1; r <= 3; r++ { // nodes 13 to 15 stay asleep
		var adds, removes []graph.EdgeKey
		adds, removes, g = sched.round(randomToggles(sched, 3, r))
		w.ObserveEdgeDelta(adds, removes, wakeList(n, r))
	}
	keys := g.EdgeKeys()
	if len(keys) < 2 {
		t.Fatalf("schedule left %d edges", len(keys))
	}
	edges := func(skip graph.EdgeKey) func(graph.EdgeKey) bool {
		return func(k graph.EdgeKey) bool { return k != skip && g.HasEdge(k.Nodes()) }
	}
	awake := func(flip graph.NodeID) func(graph.NodeID) bool {
		return func(v graph.NodeID) bool { return (v != flip) == sched.awake[v] }
	}
	if err := w.CheckTopology(len(keys), edges(0), awake(-1)); err != nil {
		t.Fatalf("fed topology rejected: %v", err)
	}
	if w.CheckTopology(len(keys)-1, edges(keys[0]), awake(-1)) == nil {
		t.Fatal("topology missing an edge accepted")
	}
	if w.CheckTopology(len(keys)+1, edges(0), awake(-1)) == nil {
		t.Fatal("topology with an extra edge accepted")
	}
	for _, v := range []graph.NodeID{0, n - 1} {
		if w.CheckTopology(len(keys), edges(0), awake(v)) == nil {
			t.Fatalf("topology with node %d's awake bit flipped accepted", v)
		}
	}
}
