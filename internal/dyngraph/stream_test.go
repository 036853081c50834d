package dyngraph

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dynlocal/internal/graph"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace fixtures under testdata/")

// drainStream pulls every round out of a StreamDecoder, deep-copying the
// loaned slices.
func drainStream(t *testing.T, d *StreamDecoder) []TraceRound {
	t.Helper()
	var out []TraceRound
	for {
		tr, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("round %d: %v", len(out)+1, err)
		}
		out = append(out, TraceRound{
			Round:   tr.Round,
			Wake:    append([]graph.NodeID(nil), tr.Wake...),
			Adds:    append([]graph.EdgeKey(nil), tr.Adds...),
			Removes: append([]graph.EdgeKey(nil), tr.Removes...),
		})
	}
}

// TestStreamRoundTripMatchesDecodeTrace is the round-trip property test:
// EncodeTraceTo → StreamDecoder must yield, round for round, bit-identical
// deltas to the in-memory DecodeTrace of the same bytes, and re-encoding
// the streamed rounds through StreamEncoder must reproduce the byte
// stream exactly.
func TestStreamRoundTripMatchesDecodeTrace(t *testing.T) {
	for _, seed := range []uint64{3, 17, 92} {
		tr, _ := buildSampleTrace(t, seed, 24, 12)
		var buf bytes.Buffer
		if err := tr.EncodeTraceTo(&buf); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		wire := append([]byte(nil), buf.Bytes()...)

		d, err := NewStreamDecoder(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("seed %d: stream header: %v", seed, err)
		}
		if d.N() != tr.N() || d.Rounds() != tr.Rounds() {
			t.Fatalf("seed %d: stream header n=%d rounds=%d, want %d/%d",
				seed, d.N(), d.Rounds(), tr.N(), tr.Rounds())
		}
		streamed := drainStream(t, d)

		mem, err := DecodeTrace(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("seed %d: DecodeTrace: %v", seed, err)
		}
		if len(streamed) != mem.Rounds() {
			t.Fatalf("seed %d: streamed %d rounds, DecodeTrace %d", seed, len(streamed), mem.Rounds())
		}
		replayDeltas(t, mem, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
			got := streamed[r-1]
			if got.Round != r {
				t.Fatalf("seed %d round %d: streamed round number %d", seed, r, got.Round)
			}
			if !slices.Equal(got.Wake, wake) || !slices.Equal(got.Adds, adds) || !slices.Equal(got.Removes, removes) {
				t.Fatalf("seed %d round %d: streamed deltas differ from DecodeTrace", seed, r)
			}
		})

		// Re-encode the streamed rounds through the StreamEncoder directly:
		// one wire-format implementation means byte-identical output.
		var re bytes.Buffer
		enc, err := NewStreamEncoder(&re, tr.N(), len(streamed))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range streamed {
			if err := enc.WriteRound(st.Wake, st.Adds, st.Removes); err != nil {
				t.Fatalf("seed %d round %d: re-encode: %v", seed, st.Round, err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), wire) {
			t.Fatalf("seed %d: re-encoded stream differs from original (%d vs %d bytes)",
				seed, re.Len(), len(wire))
		}
	}
}

// TestStreamEncoderRejectsInvalidRounds pins that encoder misuse fails at
// the write site with a sticky error, mirroring every decoder check, and
// pins its wording.
func TestStreamEncoderRejectsInvalidRounds(t *testing.T) {
	k := func(u, v graph.NodeID) graph.EdgeKey { return graph.MakeEdgeKey(u, v) }
	// round1 writes {0,1} as the first round.
	round1 := func(e *StreamEncoder) error { return e.WriteRound(nil, []graph.EdgeKey{k(0, 1)}, nil) }
	cases := []struct {
		name  string
		write func(e *StreamEncoder) error
		want  string
	}{
		{"wake-out-of-range", func(e *StreamEncoder) error {
			return e.WriteRound([]graph.NodeID{9}, nil, nil)
		}, "dyngraph: trace round 1: wake id 9 outside [0,4)"},
		{"adds-unsorted", func(e *StreamEncoder) error {
			return e.WriteRound(nil, []graph.EdgeKey{k(1, 2), k(0, 1)}, nil)
		}, "dyngraph: trace round 1 adds not strictly ascending at {0,1}"},
		{"adds-duplicate", func(e *StreamEncoder) error {
			return e.WriteRound(nil, []graph.EdgeKey{k(0, 1), k(0, 1)}, nil)
		}, "dyngraph: trace round 1 adds not strictly ascending at {0,1}"},
		{"self-loop-key", func(e *StreamEncoder) error {
			return e.WriteRound(nil, []graph.EdgeKey{graph.EdgeKey(2<<32 | 2)}, nil)
		}, "dyngraph: trace round 1 adds key {2,2}, which is not a canonical edge"},
		{"endpoint-out-of-range", func(e *StreamEncoder) error {
			return e.WriteRound(nil, []graph.EdgeKey{graph.EdgeKey(1<<32 | 7)}, nil)
		}, "dyngraph: trace round 1 adds edge {1,7} outside universe [0,4)"},
		{"add-present", func(e *StreamEncoder) error {
			if err := round1(e); err != nil {
				return err
			}
			return e.WriteRound(nil, []graph.EdgeKey{k(0, 1)}, nil)
		}, "dyngraph: trace round 2 adds edge {0,1}, which is present"},
		{"remove-absent", func(e *StreamEncoder) error {
			return e.WriteRound(nil, nil, []graph.EdgeKey{k(0, 1)})
		}, "dyngraph: trace round 1 removes edge {0,1}, which is absent"},
		{"phantom", func(e *StreamEncoder) error {
			return e.WriteRound(nil, []graph.EdgeKey{k(0, 1)}, []graph.EdgeKey{k(0, 1)})
		}, "dyngraph: trace round 1 lists edge {0,1} as both added and removed"},
		{"mirror", func(e *StreamEncoder) error {
			if err := round1(e); err != nil {
				return err
			}
			return e.WriteRound(nil, []graph.EdgeKey{k(0, 1)}, []graph.EdgeKey{k(0, 1)})
		}, "dyngraph: trace round 2 lists edge {0,1} as both added and removed"},
		{"rounds-overrun", func(e *StreamEncoder) error {
			for i := 0; i < 3; i++ {
				if err := e.WriteRound(nil, nil, nil); err != nil {
					return err
				}
			}
			return nil
		}, "dyngraph: round 3 exceeds declared count 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			e, err := NewStreamEncoder(&buf, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.write(e); err == nil || err.Error() != c.want {
				t.Fatalf("invalid round: err = %v, want %q", err, c.want)
			}
			// The error is sticky: Close must report it too.
			if err := e.Close(); err == nil || err.Error() != c.want {
				t.Fatalf("Close after rejected round: err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestStreamEncoderShortCloseFails(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewStreamEncoder(&buf, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRound(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err == nil {
		t.Fatal("Close accepted 1 of 2 declared rounds")
	}
	if err := e.WriteRound(nil, nil, nil); err == nil {
		t.Fatal("WriteRound accepted after Close")
	}
}

// TestStreamDecoderEOFAfterDeclaredRounds pins the clean-termination
// contract: io.EOF exactly after the declared rounds, and again on every
// later call.
func TestStreamDecoderEOFAfterDeclaredRounds(t *testing.T) {
	tr, _ := buildSampleTrace(t, 5, 10, 4)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewStreamDecoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("call %d past end: err = %v, want io.EOF", i+1, err)
		}
	}
}

// TestStreamDecoderTruncationIsUnexpectedEOF pins that running out of
// bytes mid-stream is reported as truncation, never as the clean io.EOF
// that ends a fully-delivered stream.
func TestStreamDecoderTruncationIsUnexpectedEOF(t *testing.T) {
	tr, _ := buildSampleTrace(t, 5, 10, 4)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	for cut := len(wire) - 1; cut > 6; cut /= 2 {
		d, err := NewStreamDecoder(bytes.NewReader(wire[:cut]))
		if err != nil {
			continue // header itself truncated
		}
		for {
			_, err := d.Next()
			if err == nil {
				continue
			}
			if err == io.EOF {
				t.Fatalf("cut at %d of %d bytes: decoder reported clean EOF", cut, len(wire))
			}
			break
		}
	}
}

// TestStreamDecoderConstantMemory pins the tentpole's memory contract:
// once the decoder's loaned buffers have grown to the largest round, a
// long tail of further rounds decodes without allocating — memory is
// independent of trace length.
func TestStreamDecoderConstantMemory(t *testing.T) {
	const n, rounds = 64, 512
	tr, _ := buildSampleTrace(t, 11, n, rounds)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	const warmup = 32
	for i := 0; i < warmup; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}
	decoded := 0
	allocs := testing.AllocsPerRun(1, func() {
		for {
			_, err := d.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			decoded++
		}
	})
	if decoded != rounds-warmup {
		t.Fatalf("decoded %d rounds after warmup, want %d", decoded, rounds-warmup)
	}
	// The GNP sample trace churns most edges every round, so the present
	// map and the delta buffers are fully warmed after round one; allow a
	// tiny slack for map-internal growth instead of demanding exactly 0.
	if perRound := allocs / float64(decoded); perRound > 0.05 {
		t.Fatalf("streaming decode allocates %.3f allocs/round over %d rounds, want ~0", perRound, decoded)
	}
}

// TestGoldenTraceFixture pins the wire format against checked-in bytes:
// the fixture re-encodes bit-identically from today's encoder, and
// decodes (streaming and in-memory) to the same deterministic trace it
// was built from. Regenerate with -update after an intentional format
// change (which must also bump traceVersion).
func TestGoldenTraceFixture(t *testing.T) {
	tr, _ := buildSampleTrace(t, 42, 32, 16)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_v1_n32_r16.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("encoded trace differs from golden fixture %s (%d vs %d bytes); "+
			"if the wire format changed intentionally, bump traceVersion and run -update",
			path, buf.Len(), len(want))
	}
	d, err := NewStreamDecoder(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	streamed := drainStream(t, d)
	if len(streamed) != tr.Rounds() {
		t.Fatalf("golden fixture streams %d rounds, want %d", len(streamed), tr.Rounds())
	}
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		got := streamed[r-1]
		if !slices.Equal(got.Wake, wake) || !slices.Equal(got.Adds, adds) || !slices.Equal(got.Removes, removes) {
			t.Fatalf("golden fixture round %d differs from rebuilt trace", r)
		}
	})
}

// TestTraceZeroRounds covers the degenerate trace: encodes, decodes (both
// paths) and replays as nothing.
func TestTraceZeroRounds(t *testing.T) {
	tr := NewTrace(5)
	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()

	got, err := DecodeTrace(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 5 || got.Rounds() != 0 {
		t.Fatalf("decoded n=%d rounds=%d, want 5/0", got.N(), got.Rounds())
	}
	replayDeltas(t, got, func(int, []graph.EdgeKey, []graph.EdgeKey, []graph.NodeID) {
		t.Fatal("the cursor visited a round of an empty trace")
	})

	d, err := NewStreamDecoder(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next on empty trace = %v, want io.EOF", err)
	}
}

// TestTraceTrailingEmptyDiffsPersistTopology pins that rounds recording
// no change keep the prior topology: the wire carries empty diffs, and
// the cursor replay sees the round-1 graph unchanged.
func TestTraceTrailingEmptyDiffsPersistTopology(t *testing.T) {
	const n = 12
	s := wstream(7)
	g := graph.GNP(n, 0.3, s)
	tr := NewTrace(n)
	tr.Append(nil, g, allNodes(n))
	tr.Append(g, g, nil)
	tr.Append(g, g, nil)

	var buf bytes.Buffer
	if err := tr.EncodeTraceTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds() != 3 {
		t.Fatalf("decoded %d rounds, want 3", got.Rounds())
	}
	replayDeltas(t, got, func(r int, adds, removes []graph.EdgeKey, _ []graph.NodeID) {
		if r > 1 && (len(adds) != 0 || len(removes) != 0) {
			t.Fatalf("round %d: expected empty diff, got %d adds %d removes", r, len(adds), len(removes))
		}
	})
	graphs, _ := replayGraphs(t, got)
	for i, rg := range graphs {
		if !rg.Equal(g) {
			t.Fatalf("replayed round %d lost the persisted topology", i+1)
		}
	}
}

// TestDecodeNodesBoundary pins the MaxDecodeNodes limit exactly at the
// cap: n == MaxDecodeNodes decodes, n == MaxDecodeNodes+1 is rejected,
// by both the streaming and the in-memory decoder.
func TestDecodeNodesBoundary(t *testing.T) {
	at := corruptTrace(1, MaxDecodeNodes, 0)
	if d, err := NewStreamDecoder(bytes.NewReader(at)); err != nil {
		t.Fatalf("n = MaxDecodeNodes rejected by stream decoder: %v", err)
	} else if d.N() != MaxDecodeNodes {
		t.Fatalf("decoded n = %d, want %d", d.N(), MaxDecodeNodes)
	}
	if tr, err := DecodeTrace(bytes.NewReader(at)); err != nil {
		t.Fatalf("n = MaxDecodeNodes rejected by DecodeTrace: %v", err)
	} else if tr.N() != MaxDecodeNodes || tr.Rounds() != 0 {
		t.Fatalf("decoded n=%d rounds=%d, want %d/0", tr.N(), tr.Rounds(), MaxDecodeNodes)
	}

	over := corruptTrace(1, MaxDecodeNodes+1, 0)
	if _, err := NewStreamDecoder(bytes.NewReader(over)); err == nil {
		t.Fatal("n = MaxDecodeNodes+1 accepted by stream decoder")
	}
	if _, err := DecodeTrace(bytes.NewReader(over)); err == nil {
		t.Fatal("n = MaxDecodeNodes+1 accepted by DecodeTrace")
	}
}
