package dyngraph

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dynlocal/internal/graph"
)

// goldenTraceBytes loads the checked-in golden trace (32 nodes, 16
// rounds) the wire format is pinned against.
func goldenTraceBytes(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "trace_v1_n32_r16.golden"))
	if err != nil {
		t.Fatalf("%v (run TestGoldenTraceFixture with -update first)", err)
	}
	return b
}

// goldenRoundOffsets re-encodes the golden trace round by round and
// records the stream length after the header and after each round —
// the exact byte extents a truncation test needs. The re-encode is
// byte-identical to the fixture (pinned by TestGoldenTraceFixture).
func goldenRoundOffsets(t *testing.T) (offsets []int, tr *Trace) {
	t.Helper()
	tr, _ = buildSampleTrace(t, 42, 32, 16)
	var buf bytes.Buffer
	enc, err := NewStreamEncoder(&buf, 32, tr.Rounds())
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Sync(); err != nil {
		t.Fatal(err)
	}
	offsets = append(offsets, buf.Len()) // header extent
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		if err := enc.WriteRound(wake, adds, removes); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if err := enc.Sync(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		offsets = append(offsets, buf.Len())
	})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	if golden := goldenTraceBytes(t); !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("round-by-round re-encode differs from golden (%d vs %d bytes)", buf.Len(), len(golden))
	}
	return offsets, tr
}

// assertRecoveredPrefix decodes a recovered trace and checks it holds
// exactly the first k rounds of the reference trace.
func assertRecoveredPrefix(t *testing.T, recovered []byte, tr *Trace, k int) {
	t.Helper()
	d, err := NewStreamDecoder(bytes.NewReader(recovered))
	if err != nil {
		t.Fatalf("recovered trace has unreadable header: %v", err)
	}
	if d.N() != tr.N() || d.Rounds() != k {
		t.Fatalf("recovered header (n=%d, rounds=%d), want (n=%d, rounds=%d)", d.N(), d.Rounds(), tr.N(), k)
	}
	got := drainStream(t, d)
	if len(got) != k {
		t.Fatalf("recovered trace streams %d rounds, want %d", len(got), k)
	}
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		if r > k {
			return
		}
		g := got[r-1]
		if !slices.Equal(g.Wake, wake) || !slices.Equal(g.Adds, adds) || !slices.Equal(g.Removes, removes) {
			t.Fatalf("recovered round %d differs from reference", r)
		}
	})
}

// TestRecoverTraceEveryTruncationOffset is the property test of the
// recovery path: for EVERY torn prefix of the golden trace — all byte
// offsets, so every tear lands mid-varint, mid-round or on a boundary —
// RecoverTrace must salvage exactly the rounds whose encoded extent
// survived, and the salvage must decode back to those rounds verbatim.
func TestRecoverTraceEveryTruncationOffset(t *testing.T) {
	offsets, tr := goldenRoundOffsets(t)
	golden := goldenTraceBytes(t)
	headerLen := offsets[0]
	for cut := 0; cut <= len(golden); cut++ {
		var out bytes.Buffer
		n, err := RecoverTrace(bytes.NewReader(golden[:cut]), &out)
		if cut < headerLen {
			if err == nil {
				t.Fatalf("cut %d: recovery inside the header succeeded", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 0
		for r := 1; r < len(offsets); r++ {
			if offsets[r] <= cut {
				want = r
			}
		}
		if n != want {
			t.Fatalf("cut %d: recovered %d rounds, want %d (round extents %v)", cut, n, want, offsets)
		}
		assertRecoveredPrefix(t, out.Bytes(), tr, want)
	}
}

// TestRecoverTraceEdgeCases pins the degenerate inputs: empty file,
// partial header, header-only stream, and a whole healthy trace (which
// round-trips unchanged).
func TestRecoverTraceEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var out bytes.Buffer
		if _, err := RecoverTrace(bytes.NewReader(nil), &out); err == nil {
			t.Fatal("recovering an empty file succeeded")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		var out bytes.Buffer
		if _, err := RecoverTrace(bytes.NewReader([]byte("DEFINITELY NOT A TRACE")), &out); err == nil {
			t.Fatal("recovering garbage succeeded")
		}
	})
	t.Run("header-only", func(t *testing.T) {
		// A freshly started recording: header declares 16 rounds, none
		// written. Recovery yields a valid zero-round trace.
		offsets, tr := goldenRoundOffsets(t)
		golden := goldenTraceBytes(t)
		var out bytes.Buffer
		n, err := RecoverTrace(bytes.NewReader(golden[:offsets[0]]), &out)
		if err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("recovered %d rounds from header-only stream, want 0", n)
		}
		assertRecoveredPrefix(t, out.Bytes(), tr, 0)
	})
	t.Run("whole-trace", func(t *testing.T) {
		golden := goldenTraceBytes(t)
		var out bytes.Buffer
		n, err := RecoverTrace(bytes.NewReader(golden), &out)
		if err != nil {
			t.Fatal(err)
		}
		if n != 16 {
			t.Fatalf("recovered %d rounds, want 16", n)
		}
		if !bytes.Equal(out.Bytes(), golden) {
			t.Fatal("recovering a healthy trace did not round-trip byte-identically")
		}
	})
	t.Run("corrupt-mid-stream", func(t *testing.T) {
		// Flip a byte inside round 9's extent: recovery must stop at the
		// corruption, keeping only rounds that still decode.
		offsets, tr := goldenRoundOffsets(t)
		golden := goldenTraceBytes(t)
		bad := append([]byte(nil), golden...)
		bad[offsets[9]-2] ^= 0x7f
		var out bytes.Buffer
		n, err := RecoverTrace(bytes.NewReader(bad), &out)
		if err != nil {
			t.Fatal(err)
		}
		if n >= 9 {
			t.Fatalf("recovered %d rounds past the corruption in round 9", n)
		}
		assertRecoveredPrefix(t, out.Bytes(), tr, n)
	})
}

// TestGoldenTornTraceFixture pins recovery against a checked-in torn
// recording: the golden trace cut mid-round (7 bytes short), exactly
// what a crash between syncs leaves behind. Regenerate with -update.
func TestGoldenTornTraceFixture(t *testing.T) {
	golden := goldenTraceBytes(t)
	torn := golden[:len(golden)-7]
	path := filepath.Join("testdata", "trace_v1_n32_r16.torn.golden")
	if *updateGolden {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(torn, want) {
		t.Fatalf("torn fixture no longer matches golden[:%d]", len(golden)-7)
	}
	_, tr := goldenRoundOffsets(t)
	var out bytes.Buffer
	n, err := RecoverTrace(bytes.NewReader(want), &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != 15 {
		t.Fatalf("torn fixture recovered %d rounds, want 15", n)
	}
	assertRecoveredPrefix(t, out.Bytes(), tr, 15)
}

// TestStreamEncoderSyncEvery checks the periodic durability barrier: with
// SyncEvery(k), after every k-th WriteRound the bytes so far form a
// recoverable prefix holding all written rounds.
func TestStreamEncoderSyncEvery(t *testing.T) {
	tr, _ := buildSampleTrace(t, 7, 24, 12)
	var buf bytes.Buffer
	enc, err := NewStreamEncoder(&buf, 24, tr.Rounds())
	if err != nil {
		t.Fatal(err)
	}
	enc.SyncEvery(3)
	written := 0
	replayDeltas(t, tr, func(r int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		if err := enc.WriteRound(wake, adds, removes); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		written++
		if written%3 == 0 {
			var out bytes.Buffer
			n, err := RecoverTrace(bytes.NewReader(buf.Bytes()), &out)
			if err != nil {
				t.Fatalf("after round %d: %v", r, err)
			}
			if n != written {
				t.Fatalf("after round %d: synced prefix recovers %d rounds, want %d", r, n, written)
			}
		}
	})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}

// syncCounter wraps a buffer and counts Sync calls, standing in for an
// *os.File's fsync.
type syncCounter struct {
	bytes.Buffer
	syncs int
}

func (s *syncCounter) Sync() error { s.syncs++; return nil }

// TestStreamEncoderSyncReachesFile checks Sync forwards the durability
// barrier to a sink that supports it.
func TestStreamEncoderSyncReachesFile(t *testing.T) {
	var sink syncCounter
	enc, err := NewStreamEncoder(&sink, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc.SyncEvery(1)
	if err := enc.WriteRound([]graph.NodeID{0, 1}, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}, nil); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 1 {
		t.Fatalf("after 1 round with SyncEvery(1): %d fsyncs, want 1", sink.syncs)
	}
	if err := enc.WriteRound(nil, nil, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if sink.syncs != 2 {
		t.Fatalf("after 2 rounds: %d fsyncs, want 2", sink.syncs)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
}
