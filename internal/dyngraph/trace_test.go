package dyngraph

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"slices"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
)

func buildSampleTrace(t testing.TB, seed uint64, n, rounds int) (*Trace, []*graph.Graph) {
	t.Helper()
	s := wstream(seed)
	tr := NewTrace(n)
	var prev *graph.Graph
	var history []*graph.Graph
	for r := 1; r <= rounds; r++ {
		g := graph.GNP(n, 0.15, s)
		var wake []graph.NodeID
		if r == 1 {
			wake = allNodes(n)
		}
		tr.Append(prev, g, wake)
		history = append(history, g)
		prev = g
	}
	return tr, history
}

// replayDeltas walks tr through a fresh Cursor, calling fn with each
// round's 1-based number, diff and wake set, and checks that the cursor
// ends with io.EOF after exactly tr.Rounds() rounds and stays there.
func replayDeltas(t testing.TB, tr *Trace, fn func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID)) {
	t.Helper()
	c := tr.Cursor()
	for r := 1; ; r++ {
		wake, adds, removes, err := c.NextDeltas()
		if err == io.EOF {
			if r-1 != tr.Rounds() {
				t.Fatalf("cursor ended after %d of %d rounds", r-1, tr.Rounds())
			}
			if _, _, _, err := c.NextDeltas(); err != io.EOF {
				t.Fatalf("cursor past the end returned %v, want io.EOF", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("cursor round %d: %v", r, err)
		}
		fn(r, adds, removes, wake)
	}
}

// replayGraphs folds tr's diffs through a DynAdj into one materialized
// graph per round, with each round's wake set: the test-side reference a
// cursor replay is compared with.
func replayGraphs(t testing.TB, tr *Trace) (graphs []*graph.Graph, wakes [][]graph.NodeID) {
	t.Helper()
	adj := graph.NewDynAdj(tr.N())
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		if err := adj.Apply(adds, removes); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		graphs = append(graphs, adj.Graph().Clone())
		wakes = append(wakes, slices.Clone(wake))
	})
	return graphs, wakes
}

func TestTraceReplayReconstructsGraphs(t *testing.T) {
	tr, history := buildSampleTrace(t, 9, 18, 12)
	replayed, wakes := replayGraphs(t, tr)
	var wakeRounds []int
	for i, wake := range wakes {
		if len(wake) > 0 {
			wakeRounds = append(wakeRounds, i+1)
		}
	}
	if len(replayed) != len(history) {
		t.Fatalf("replayed %d rounds, want %d", len(replayed), len(history))
	}
	for i := range history {
		if !replayed[i].Equal(history[i]) {
			t.Fatalf("round %d graph mismatch", i+1)
		}
	}
	if len(wakeRounds) != 1 || wakeRounds[0] != 1 {
		t.Fatalf("wake rounds = %v", wakeRounds)
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	tr, history := buildSampleTrace(t, 31, 25, 15)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.N() != tr.N() || got.Rounds() != tr.Rounds() {
		t.Fatalf("header mismatch: n=%d rounds=%d", got.N(), got.Rounds())
	}
	graphs, _ := replayGraphs(t, got)
	for i, g := range graphs {
		if !g.Equal(history[i]) {
			t.Fatalf("decoded round %d graph mismatch", i+1)
		}
	}
}

func TestTraceDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeTrace(bytes.NewReader([]byte("NOPE"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := DecodeTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
	// Valid magic, truncated body.
	if _, err := DecodeTrace(bytes.NewReader([]byte("DYNT"))); err == nil {
		t.Fatal("expected error for truncated trace")
	}
}

// corruptTrace builds a syntactically valid header followed by the given
// varint fields.
func corruptTrace(fields ...uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(traceMagic)
	var tmp [binary.MaxVarintLen64]byte
	for _, f := range fields {
		buf.Write(tmp[:binary.PutUvarint(tmp[:], f)])
	}
	return buf.Bytes()
}

func TestTraceDecodeRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		// version 1, n too large for int32 node ids.
		{"n-overflow", corruptTrace(1, 1<<33, 0)},
		// n above the decode sanity limit: a 14-byte header must not be
		// able to schedule an O(n) allocation for the first replay.
		{"n-over-decode-limit", corruptTrace(1, MaxDecodeNodes+1, 1, 0, 0, 0)},
		// n=4, 1 round, wake count 1, wake id 9 >= n.
		{"wake-out-of-range", corruptTrace(1, 4, 1, 1, 9)},
		// n=4, 1 round, no wakes, 1 added edge with key {2,2} (u == v).
		{"self-loop-key", corruptTrace(1, 4, 1, 0, 1, 2<<32|2)},
		// n=4, 1 round, no wakes, 1 added edge with endpoint 7 >= n.
		{"endpoint-out-of-range", corruptTrace(1, 4, 1, 0, 1, 1<<32|7)},
		// n=4, 1 round, no wakes, added list with a zero delta (duplicate).
		{"duplicate-edge", corruptTrace(1, 4, 1, 0, 2, 1<<32|2, 0)},
		// n=4, 1 round, no wakes, added deltas overflowing uint64.
		{"delta-overflow", corruptTrace(1, 4, 1, 0, 2, math.MaxUint64, 2)},
		// Huge claimed counts with no data behind them must fail on EOF,
		// not allocate. (A 20-byte file claiming 2^40 edges was a crash.)
		{"truncated-huge-edge-count", corruptTrace(1, 4, 1, 0, 1<<40)},
		{"truncated-huge-wake-count", corruptTrace(1, 4, 1, 1<<40)},
		{"truncated-huge-round-count", corruptTrace(1, 4, 1<<40)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := DecodeTrace(bytes.NewReader(c.data))
			if err == nil {
				t.Fatalf("corrupt trace accepted: %+v", tr)
			}
		})
	}
}

// TestTraceDecodeValidTraceReplays pins that a decoded well-formed trace
// replays without panicking even through the validation path.
func TestTraceDecodeValidTraceReplays(t *testing.T) {
	tr, _ := buildSampleTrace(t, 8, 12, 6)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	replayDeltas(t, got, func(int, []graph.EdgeKey, []graph.EdgeKey, []graph.NodeID) { rounds++ })
	if rounds != 6 {
		t.Fatalf("replayed %d rounds, want 6", rounds)
	}
}

// TestTraceReplayDeltasMatchesReplay pins the cursor, the trace's one
// replay surface: folding its add/remove events must reconstruct exactly
// the appended graphs, with the recorded wake sets, and the emitted lists
// must be strictly ascending (the contract adversary.ScriptedStream and
// the engine's adjacency rely on).
func TestTraceReplayDeltasMatchesReplay(t *testing.T) {
	tr, history := buildSampleTrace(t, 21, 16, 10)
	m := graphtest.NewDiffModel(tr.N())
	round := 0
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		round++
		if r != round {
			t.Fatalf("delta replay round %d, want %d", r, round)
		}
		m.Step(t, adds, removes)
		want := history[r-1]
		if m.Len() != want.M() {
			t.Fatalf("round %d: folded %d edges, want %d", r, m.Len(), want.M())
		}
		for _, k := range m.Keys() {
			if !want.HasEdge(k.Nodes()) {
				t.Fatalf("round %d: folded edge %v not in the appended graph", r, k)
			}
		}
		if r == 1 && len(wake) != 16 {
			t.Fatalf("round 1 wake = %v", wake)
		}
	})
	if round != tr.Rounds() {
		t.Fatalf("delta-replayed %d rounds, want %d", round, tr.Rounds())
	}
}

// TestTraceDecodeRejectsInconsistentDeltas pins the decoder's delta
// consistency validation: wire input whose rounds add a present edge,
// remove an absent one, list one edge as both or name an edge outside
// the universe must error out with graph.CheckDiff's wording, since
// downstream delta consumers treat such diffs as panics. (An unsorted
// list has no wire form: a zero key delta is refused as a duplicate.)
func TestTraceDecodeRejectsInconsistentDeltas(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		// n=4, 2 rounds: round 1 adds {0,1}; round 2 adds {0,1} again.
		{"re-add-present", corruptTrace(1, 4, 2, 0, 1, 1, 0, 0, 1, 1, 0),
			"dyngraph: trace round 2 adds edge {0,1}, which is present"},
		// n=4, 1 round: removes {0,1} which was never added.
		{"remove-absent", corruptTrace(1, 4, 1, 0, 0, 1, 1),
			"dyngraph: trace round 1 removes edge {0,1}, which is absent"},
		// n=4, 1 round: adds and removes the absent {0,1} (a phantom
		// diff, which an add-then-remove fold would accept).
		{"phantom", corruptTrace(1, 4, 1, 0, 1, 1, 1, 1),
			"dyngraph: trace round 1 lists edge {0,1} as both added and removed"},
		// n=4, 2 rounds: round 1 adds {0,1}; round 2 adds and removes it.
		{"mirror", corruptTrace(1, 4, 2, 0, 1, 1, 0, 0, 1, 1, 1, 1),
			"dyngraph: trace round 2 lists edge {0,1} as both added and removed"},
		// n=4, 1 round: removes {1,7}, whose endpoint 7 >= n.
		{"remove-out-of-universe", corruptTrace(1, 4, 1, 0, 0, 1, 1<<32|7),
			"dyngraph: trace round 1 removes edge {1,7} outside universe [0,4)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if tr, err := DecodeTrace(bytes.NewReader(c.data)); err == nil || err.Error() != c.want {
				t.Fatalf("inconsistent trace: err = %v, want %q (trace %+v)", err, c.want, tr)
			}
		})
	}
}

func TestTraceEncodingIsCompact(t *testing.T) {
	// Delta encoding should beat 16 bytes/edge-change by a wide margin on
	// sorted keys.
	tr, history := buildSampleTrace(t, 77, 64, 30)
	changes := 0
	prev := graph.Empty(64)
	for _, g := range history {
		adds, removes := graph.DiffSortedKeys(prev.Edges(), g.Edges(), nil, nil)
		changes += len(adds) + len(removes)
		prev = g
	}
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	if changes > 0 && buf.Len() > 10*changes {
		t.Fatalf("trace encoding too large: %d bytes for %d changes", buf.Len(), changes)
	}
}
