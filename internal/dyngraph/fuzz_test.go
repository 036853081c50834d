package dyngraph

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
)

// FuzzDecodeTrace feeds arbitrary bytes to the trace decoder. The decoder
// must either reject the input with an error or produce a trace that is
// fully usable: replayable without panics (every edge key within the node
// universe, no self-loops) and stable under a re-encode/re-decode round
// trip.
func FuzzDecodeTrace(f *testing.F) {
	// Seed corpus: a genuine encoded trace, prefix truncations of it, and
	// the corrupt fixtures from the unit tests.
	tr, _ := buildSampleTrace(f, 3, 10, 5)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:5])
	f.Add([]byte("DYNT"))
	f.Add([]byte("NOPE"))
	f.Add(corruptTrace(1, 4, 1, 0, 1<<40))
	f.Add(corruptTrace(1, 1<<33, 0))
	f.Add(corruptTrace(1, 4, 1, 0, 2, 1<<32|2, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded ids must be in range (linear in input size).
		for i, st := range tr.rounds {
			for _, v := range st.wake {
				if int(v) < 0 || int(v) >= tr.N() {
					t.Fatalf("round %d: wake id %d outside [0,%d)", i+1, v, tr.N())
				}
			}
		}
		// Re-encode and re-decode: must succeed and agree step for step.
		var out bytes.Buffer
		if err := tr.EncodeTraceTo(&out); err != nil {
			t.Fatalf("re-encode of decoded trace: %v", err)
		}
		tr2, err := DecodeTrace(&out)
		if err != nil {
			t.Fatalf("re-decode of re-encoded trace: %v", err)
		}
		if tr2.N() != tr.N() || !reflect.DeepEqual(tr.rounds, tr2.rounds) {
			t.Fatalf("round trip changed trace: n %d→%d", tr.N(), tr2.N())
		}
		// A cursor replay must not panic on validated input, and its final
		// graph must equal an independent model's fold of the same cursor.
		// Materializing graphs is O(rounds·n) by nature, so bound it: a
		// hostile input can claim ~3 bytes per empty round and a large n,
		// and unbounded replay would turn one fuzz exec quadratic and
		// trip the hang detector.
		if tr.Rounds() > 0 && tr.Rounds()*(tr.N()+1) <= 1<<22 {
			graphs, _ := replayGraphs(t, tr)
			model := graphtest.NewDiffModel(tr.N())
			replayDeltas(t, tr, func(_ int, adds, removes []graph.EdgeKey, _ []graph.NodeID) {
				model.Step(t, adds, removes)
			})
			if !slices.Equal(graphs[len(graphs)-1].Edges(), model.Keys()) {
				t.Fatal("the final replayed graph differs from the model's fold of the cursor")
			}
		}
	})
}

// FuzzStreamDecoder feeds arbitrary bytes to the streaming trace decoder.
// It must behave exactly like the in-memory DecodeTrace on every input —
// same accept/reject decision, same per-round deltas — and never panic or
// allocate proportionally to hostile claimed counts. The corpus seeds are
// the FuzzDecodeTrace ones: a valid stream, truncations, and the corrupt
// unit-test fixtures.
func FuzzStreamDecoder(f *testing.F) {
	tr, _ := buildSampleTrace(f, 3, 10, 5)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:5])
	f.Add([]byte("DYNT"))
	f.Add([]byte("NOPE"))
	f.Add(corruptTrace(1, 4, 1, 0, 1<<40))
	f.Add(corruptTrace(1, 1<<33, 0))
	f.Add(corruptTrace(1, 4, 1, 0, 2, 1<<32|2, 0))
	f.Add(corruptTrace(1, 4, 2, 0, 1, 1, 0, 0, 1, 1, 0))
	f.Add(corruptTrace(1, 4, 1<<40))

	f.Fuzz(func(t *testing.T, data []byte) {
		memTr, memErr := DecodeTrace(bytes.NewReader(data))

		d, err := NewStreamDecoder(bytes.NewReader(data))
		if err != nil {
			if memErr == nil {
				t.Fatalf("stream header rejected input DecodeTrace accepts: %v", err)
			}
			return
		}
		rounds := 0
		present := make(map[graph.EdgeKey]struct{})
		for {
			tr, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if memErr == nil {
					t.Fatalf("stream round %d rejected input DecodeTrace accepts: %v", rounds+1, err)
				}
				return
			}
			rounds++
			// Surviving rounds uphold the full delta contract: in-range
			// ids, strictly ascending keys, consistent add/remove.
			for _, v := range tr.Wake {
				if int(v) < 0 || int(v) >= d.N() {
					t.Fatalf("round %d: wake id %d outside [0,%d)", rounds, v, d.N())
				}
			}
			checkAscendingKeys(t, rounds, "adds", tr.Adds, d.N())
			checkAscendingKeys(t, rounds, "removes", tr.Removes, d.N())
			for _, k := range tr.Adds {
				if _, ok := present[k]; ok {
					t.Fatalf("round %d: add of present edge %v survived validation", rounds, k)
				}
				present[k] = struct{}{}
			}
			for _, k := range tr.Removes {
				if _, ok := present[k]; !ok {
					t.Fatalf("round %d: remove of absent edge %v survived validation", rounds, k)
				}
				delete(present, k)
			}
		}
		if memErr != nil {
			t.Fatalf("stream decoded input DecodeTrace rejects: %v", memErr)
		}
		if rounds != memTr.Rounds() {
			t.Fatalf("stream yielded %d rounds, DecodeTrace %d", rounds, memTr.Rounds())
		}
	})
}

func checkAscendingKeys(t *testing.T, round int, kind string, keys []graph.EdgeKey, n int) {
	t.Helper()
	for i, k := range keys {
		if i > 0 && keys[i-1] >= k {
			t.Fatalf("round %d: %s not strictly ascending", round, kind)
		}
		u, v := k.Nodes()
		if int(u) < 0 || int(v) < 0 || int(u) >= int(v) || int(v) >= n {
			t.Fatalf("round %d: %s key %v invalid for %d nodes", round, kind, k, n)
		}
	}
}
