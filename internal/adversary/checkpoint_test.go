package adversary

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// stateBytes serializes a Checkpointer's full state, the canonical
// fingerprint for comparing two adversaries bit for bit.
func stateBytes(t testing.TB, c Checkpointer) []byte {
	t.Helper()
	w := ckpt.NewWriter(nil)
	c.SaveState(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func loadState(t *testing.T, c Checkpointer, b []byte) {
	t.Helper()
	r := ckpt.NewReader(b)
	c.LoadState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// deltaRoundTrip writes src's (from, to] delta and applies it to dst.
func deltaRoundTrip(t *testing.T, src, dst DeltaCheckpointer, from, to int) error {
	t.Helper()
	w := ckpt.NewWriter(nil)
	src.SaveDelta(w, from, to)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(w.Bytes())
	dst.LoadDelta(r, from, to)
	if err := r.Err(); err != nil {
		return err
	}
	return r.Close()
}

// TestDeltaFastForwardEquivalence pins the DeltaCheckpointer contract
// for both implementers: an adversary restored from a full checkpoint
// at round k1 and fast-forwarded by a (k1, k2] delta must be bit-
// identical — state bytes and every future step — to the live adversary
// that actually played those rounds.
func TestDeltaFastForwardEquivalence(t *testing.T) {
	const n = 40
	const k1, k2, tail = 6, 17, 8
	base := graph.GNP(n, 6.0/float64(n), prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	type deltaAdversary interface {
		Adversary
		DeltaCheckpointer
	}
	cases := map[string]func() deltaAdversary{
		"churn": func() deltaAdversary {
			return &Churn{Base: base, Add: 4, Del: 4, Seed: 9}
		},
		"edgemarkov": func() deltaAdversary {
			return &EdgeMarkov{Footprint: base, POn: 0.6, POff: 0.3, Seed: 13}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			live := mk()
			v := newFakeView(n)
			for r := 1; r <= k1; r++ {
				v.play(live)
			}
			resumed := mk()
			loadState(t, resumed, stateBytes(t, live))
			for r := k1 + 1; r <= k2; r++ {
				v.play(live)
			}
			if err := deltaRoundTrip(t, live, resumed, k1, k2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateBytes(t, live), stateBytes(t, resumed)) {
				t.Fatal("state bytes diverge after delta fast-forward")
			}
			// Future steps must coincide too: play both from k2.
			vLive, vRes := v, newFakeView(n)
			vRes.round = v.round
			if err := vRes.adj.Apply(v.adj.Graph().EdgeKeys(), nil); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < tail; r++ {
				a := vLive.play(live)
				b := vRes.play(resumed)
				if !bytes.Equal(graphFingerprint(a.G), graphFingerprint(b.G)) {
					t.Fatalf("round %d after resume: topologies diverge", k2+r+1)
				}
			}
		})
	}
}

func graphFingerprint(g *graph.Graph) []byte {
	var buf bytes.Buffer
	for _, k := range g.EdgeKeys() {
		buf.WriteByte(byte(k))
		buf.WriteByte(byte(k >> 8))
		buf.WriteByte(byte(k >> 16))
		buf.WriteByte(byte(k >> 24))
	}
	return buf.Bytes()
}

// TestDeltaFromFreshBase covers the chain-base-before-round-1 corner:
// a delta whose span starts at round 0 must initialize the adversary
// (round 1 emits the base set without drawing) and still match live.
func TestDeltaFromFreshBase(t *testing.T) {
	const n = 24
	base := graph.GNP(n, 5.0/float64(n), prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	mk := func() *Churn { return &Churn{Base: base, Add: 3, Del: 3, Seed: 7} }
	live := mk()
	v := newFakeView(n)
	for r := 1; r <= 5; r++ {
		v.play(live)
	}
	resumed := mk()
	if err := deltaRoundTrip(t, live, resumed, 0, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stateBytes(t, live), stateBytes(t, resumed)) {
		t.Fatal("fresh-base fast-forward diverges from live run")
	}
}

// TestDeltaRejectsBadSpan: hostile or corrupt round ranges must fail
// instead of looping.
func TestDeltaRejectsBadSpan(t *testing.T) {
	base := graph.GNP(16, 0.3, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	for _, span := range [][2]int{{5, 4}, {-1, 3}, {0, maxDeltaSpan + 1}} {
		c := &Churn{Base: base, Add: 1, Del: 1, Seed: 1}
		if err := deltaRoundTrip(t, c, c, span[0], span[1]); err == nil {
			t.Errorf("span (%d, %d] accepted", span[0], span[1])
		}
	}
}

// TestDeltaRejectsWrongAdversary: a churn delta applied to an
// edge-Markov adversary must fail on the section tag, not misparse.
func TestDeltaRejectsWrongAdversary(t *testing.T) {
	base := graph.GNP(16, 0.3, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	c := &Churn{Base: base, Add: 1, Del: 1, Seed: 1}
	m := &EdgeMarkov{Footprint: base, POn: 0.5, POff: 0.5, Seed: 2}
	if err := deltaRoundTrip(t, c, m, 2, 4); err == nil {
		t.Fatal("churn delta restored into an edge-Markov adversary")
	}
}

// TestChurnLoadStateRejectsBadKeys feeds Churn.LoadState crafted
// sections: keys outside the universe, self-loops, non-canonical keys
// and duplicates must fail the reader, while the same section with valid
// keys loads. A duplicate would corrupt keyIdx, and the next swap-delete
// would then remove the wrong edge.
func TestChurnLoadStateRejectsBadKeys(t *testing.T) {
	const n = 16
	base := graph.GNP(n, 0.3, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	section := func(keys ...graph.EdgeKey) []byte {
		w := ckpt.NewWriter(nil)
		w.Section(tagChurn)
		w.Bool(true)
		w.Int(len(keys))
		for _, k := range keys {
			w.Uvarint(uint64(k))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	raw := func(u, v uint32) graph.EdgeKey { return graph.EdgeKey(uint64(u)<<32 | uint64(v)) }
	ok := graph.MakeEdgeKey(1, 2)
	cases := []struct {
		name  string
		keys  []graph.EdgeKey
		valid bool
	}{
		{"valid", []graph.EdgeKey{ok, graph.MakeEdgeKey(0, n-1)}, true},
		{"out-of-range", []graph.EdgeKey{ok, graph.MakeEdgeKey(3, n)}, false},
		{"negative-id", []graph.EdgeKey{raw(1<<31, 2)}, false},
		{"self-loop", []graph.EdgeKey{ok, raw(4, 4)}, false},
		{"non-canonical", []graph.EdgeKey{raw(5, 2)}, false},
		{"duplicate", []graph.EdgeKey{ok, graph.MakeEdgeKey(0, 3), ok}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Churn{Base: base, Add: 1, Del: 1, Seed: 1}
			r := ckpt.NewReader(section(tc.keys...))
			c.LoadState(r)
			err := r.Err()
			if err == nil {
				err = r.Close()
			}
			if tc.valid != (err == nil) {
				t.Fatalf("keys %v: err = %v, want valid %v", tc.keys, err, tc.valid)
			}
			if tc.valid && !bytes.Equal(stateBytes(t, c), section(tc.keys...)) {
				t.Fatal("valid section did not round-trip")
			}
		})
	}
}

// TestP2PChurnLoadStateRejectsBadState feeds P2PChurn sections whose
// ids or adjacency rows could not come from a run: a next id past the
// universe, live ids at or past the next id or listed twice, and rows
// that are asymmetric, name a self-loop, a duplicate or a departed peer.
// Each must fail the read; before the checks, an asymmetric row made
// the next departure index a row at -1 and panic.
func TestP2PChurnLoadStateRejectsBadState(t *testing.T) {
	const n = 8
	section := func(next int64, live []int64, rows [][]int64) []byte {
		w := ckpt.NewWriter(nil)
		w.Section(tagP2PChurn)
		w.Bool(true)
		w.Varint(next)
		w.Int(len(live))
		for _, v := range live {
			w.Varint(v)
		}
		for _, row := range rows {
			w.Int(len(row))
			for _, u := range row {
				w.Varint(u)
			}
		}
		w.Int(0) // session ends
		w.Int(0) // rejoins
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	live := []int64{0, 1, 2, 3}
	cases := []struct {
		name  string
		next  int64
		live  []int64
		rows  [][]int64
		valid bool
	}{
		{"valid", 5, live, [][]int64{{1, 2}, {0}, {0}, {}}, true},
		{"next-id-past-universe", n + 1, live, [][]int64{{1, 2}, {0}, {0}, {}}, false},
		{"negative-next-id", -1, nil, nil, false},
		{"live-id-past-next", 3, live, [][]int64{{1, 2}, {0}, {0}, {}}, false},
		{"negative-live-id", 5, []int64{0, -1}, [][]int64{{}, {}}, false},
		{"duplicate-live-id", 5, []int64{0, 1, 1}, [][]int64{{}, {}, {}}, false},
		{"asymmetric-row", 5, live, [][]int64{{1, 2}, {0}, {}, {}}, false},
		{"self-loop", 5, live, [][]int64{{1}, {0}, {}, {3}}, false},
		{"duplicate-neighbor", 5, live, [][]int64{{1, 1}, {0, 0}, {}, {}}, false},
		{"departed-neighbor", 5, live, [][]int64{{4}, {}, {}, {}}, false},
		{"neighbor-past-id-space", 5, live, [][]int64{{1 << 40}, {}, {}, {}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &P2PChurn{N: n, Seed: 1}
			r := ckpt.NewReader(section(tc.next, tc.live, tc.rows))
			p.LoadState(r)
			err := r.Err()
			if err == nil {
				err = r.Close()
			}
			if tc.valid != (err == nil) {
				t.Fatalf("err = %v, want valid %v", err, tc.valid)
			}
			if tc.valid && !bytes.Equal(stateBytes(t, p), section(tc.next, tc.live, tc.rows)) {
				t.Fatal("valid section did not round-trip")
			}
		})
	}
}

// TestLocalStaticRefusesMirrorSection pins the retired LocalStatic
// section format, which carried the inner topology after its tag 0x75: a
// record in it is refused with an error naming the format, never read as
// the current section, while the current format round-trips.
func TestLocalStaticRefusesMirrorSection(t *testing.T) {
	base := graph.Path(6)
	mk := func() *LocalStatic {
		return &LocalStatic{Inner: &Churn{Base: base, Add: 1, Del: 1, Seed: 3}, Base: base, Protected: []graph.NodeID{0}, Alpha: 1}
	}
	old := ckpt.NewWriter(nil)
	old.Section(0x75)
	old.Bool(true) // started
	old.Int(1)     // inner-topology mirror: one key
	old.Uvarint(uint64(graph.MakeEdgeKey(3, 4)))
	old.Bool(false) // no inner state
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(old.Bytes())
	mk().LoadState(r)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "retired edge-mirror format") {
		t.Fatalf("old-format section: err %v, want the retired-format refusal", err)
	}

	live := mk()
	v := newFakeView(6)
	for r := 0; r < 4; r++ {
		v.play(live)
	}
	resumed := mk()
	loadState(t, resumed, stateBytes(t, live))
	if !bytes.Equal(stateBytes(t, live), stateBytes(t, resumed)) {
		t.Fatal("current-format LocalStatic section does not round-trip")
	}
}

// TestForgedCountsAllocateLittle feeds sections of a few bytes whose
// element counts claim 2^26 entries, under configurations that allow
// that many: a churn edge list, a wakeup inner topology, a P2P
// session-end bucket and a P2P rejoin-count map. Each count exceeds the
// bytes left in the record, so the read must fail on it before the
// decoder allocates for it.
func TestForgedCountsAllocateLittle(t *testing.T) {
	const huge = 1 << 26
	const n = 1 << 14 // n(n-1)/2 edges allow huge
	p2pHead := func(w *ckpt.Writer) {
		w.Section(tagP2PChurn)
		w.Bool(true)
		w.Varint(huge) // next id
		w.Int(0)       // live ids
	}
	cases := []struct {
		name  string
		adv   Checkpointer
		write func(w *ckpt.Writer)
	}{
		{"churn", &Churn{Base: graph.Empty(n)}, func(w *ckpt.Writer) {
			w.Section(tagChurn)
			w.Bool(true)
			w.Int(huge)
		}},
		{"wakeup", &Wakeup{Inner: Static{G: graph.Empty(n)}, Schedule: make([]int, n)}, func(w *ckpt.Writer) {
			w.Section(tagWakeup)
			w.Bool(true)
			w.Int(1) // last round
			w.Int(huge)
		}},
		{"p2p-round-bucket", &P2PChurn{N: huge}, func(w *ckpt.Writer) {
			p2pHead(w)
			w.Int(1) // one session-end bucket
			w.Int(5) // its round
			w.Int(huge)
		}},
		{"p2p-counts-map", &P2PChurn{N: huge}, func(w *ckpt.Writer) {
			p2pHead(w)
			w.Int(0) // no session-end buckets
			w.Int(huge)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := ckpt.NewWriter(nil)
			tc.write(w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r := ckpt.NewReader(w.Bytes())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.adv.LoadState(r)
			runtime.ReadMemStats(&after)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bytes left") {
				t.Fatalf("err = %v, want the count refused for the bytes left", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Fatalf("a %d-byte section allocated %d bytes", len(w.Bytes()), got)
			}
		})
	}
}

// TestScriptedStreamLoadStateRefusesRewind pins the range check on the
// consumed-round count, an Int and not a Count because the section
// carries no byte per round: a negative count, and one below the rounds
// the replay has already consumed, fail the read.
func TestScriptedStreamLoadStateRefusesRewind(t *testing.T) {
	tr := dyngraph.NewTrace(4)
	tr.Append(nil, graph.Path(4), nil)
	for range 2 {
		tr.Append(graph.Path(4), graph.Path(4), nil)
	}
	section := func(consumed int) []byte {
		w := ckpt.NewWriter(nil)
		w.Section(tagScriptedStream)
		w.Int(consumed)
		w.Bool(false)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	for _, tc := range []struct{ at, consumed int }{{0, -1}, {2, 1}} {
		s := NewScriptedStream(tr.Cursor())
		loadState(t, s, section(tc.at))
		r := ckpt.NewReader(section(tc.consumed))
		s.LoadState(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "cannot rewind") {
			t.Fatalf("%d consumed rounds over a replay at %d: err %v, want a refused rewind", tc.consumed, tc.at, err)
		}
	}
}

// TestWakeupLoadStateChecksRoundPureInner restores Wakeups over the
// round-pure inners, Static and Alternator, from CRC-valid sections
// written after round 5. An empty copy of the inner topology, and the
// copy of round 5 claimed for round 6 when the Alternator switches
// graphs every round, disagree with the inner's topology for the
// section's last round and must fail the read: before the check, the
// empty copy over the Alternator restored, and its next Step panicked
// removing an absent edge. The section the run itself wrote must load
// and step on.
func TestWakeupLoadStateChecksRoundPureInner(t *testing.T) {
	const n, at = 6, 5
	section := func(lastRound int, keys []graph.EdgeKey) []byte {
		w := ckpt.NewWriter(nil)
		w.Section(tagWakeup)
		w.Bool(true)
		w.Int(lastRound)
		w.Int(len(keys))
		for _, k := range keys {
			w.Uvarint(uint64(k))
		}
		w.Bool(false) // the inner keeps no checkpointed state
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	for _, tc := range []struct {
		name      string
		inner     func() Adversary
		switching bool // the topology of round at+1 differs from round at's
	}{
		{"alternator", func() Adversary { return &Alternator{A: graph.Cycle(n), B: graph.Path(n), Period: 1} }, true},
		{"alternator/period=3", func() Adversary { return &Alternator{A: graph.Cycle(n), B: graph.Path(n), Period: 3} }, false},
		{"static", func() Adversary { return Static{G: graph.Cycle(n)} }, false},
		{"static/pointer", func() Adversary { return &Static{G: graph.Cycle(n)} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Wakeup { return &Wakeup{Inner: tc.inner(), Schedule: make([]int, n)} }
			src := mk()
			v := newFakeView(n)
			for range at {
				v.play(src)
			}
			bad := [][]byte{section(at, nil)}
			if tc.switching {
				bad = append(bad, section(at+1, src.inner.Graph().EdgeKeys()))
			}
			for i, b := range bad {
				r := ckpt.NewReader(b)
				mk().LoadState(r)
				if err := r.Err(); err == nil || !strings.Contains(err.Error(), "inner adversary holds") {
					t.Fatalf("bad section %d: err = %v, want the inner topology refused", i, err)
				}
			}
			dst := mk()
			loadState(t, dst, stateBytes(t, src))
			w := &fakeView{round: at, n: n}
			for range 3 {
				w.round++
				dst.Step(w)
			}
		})
	}
}

// FuzzAdversaryLoadState feeds arbitrary payloads to the LoadState of
// each checkpointable adversary, picked by kind and seeded with its own
// state after a few rounds. Each payload is sealed with its checksum, so
// the fuzzer reaches the field checks instead of stopping at the
// trailer. A rejected record must fail with an error, never a panic; an
// accepted one must then step three rounds without a panic, resuming
// after the rounds its seed played, or for a Wakeup after the last round
// its record names. The kind byte picks the adversary modulo the number
// of kinds; the committed corpus entries use kind 123, which picks
// Wakeup-over-Churn for five kinds and for six.
func FuzzAdversaryLoadState(f *testing.F) {
	const n, played = 24, 4
	base := graph.GNP(n, 0.2, prf.NewStream(7, 0, 0, prf.PurposeWorkload))
	type checkpointed interface {
		Adversary
		Checkpointer
	}
	kinds := []func() checkpointed{
		func() checkpointed { return &Churn{Base: base, Add: 3, Del: 3, Seed: 5} },
		func() checkpointed { return &EdgeMarkov{Footprint: base, POn: 0.4, POff: 0.3, Seed: 6} },
		func() checkpointed { return &P2PChurn{N: n, Init: 8, JoinPerRound: 2, Degree: 3, Seed: 7} },
		func() checkpointed {
			return &Wakeup{Inner: &Churn{Base: base, Add: 2, Del: 2, Seed: 8}, Schedule: StaggeredSchedule(n, 4)}
		},
		func() checkpointed {
			return &LocalStatic{Inner: &Churn{Base: base, Add: 2, Del: 2, Seed: 9}, Base: base, Protected: []graph.NodeID{0}, Alpha: 1}
		},
		func() checkpointed {
			return &Wakeup{Inner: &Alternator{A: graph.Cycle(n), B: base, Period: 1}, Schedule: StaggeredSchedule(n, 4)}
		},
	}
	for kind, mk := range kinds {
		a := mk()
		v := newFakeView(n)
		for range played {
			v.play(a)
		}
		rec := stateBytes(f, a)
		f.Add(uint8(kind), rec[:len(rec)-4])
	}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		a := kinds[int(kind)%len(kinds)]()
		rec := binary.LittleEndian.AppendUint32(slices.Clip(payload), crc32.ChecksumIEEE(payload))
		r := ckpt.NewReader(rec)
		a.LoadState(r)
		if r.Err() != nil || r.Close() != nil {
			return
		}
		// A Wakeup steps on from the last round its record names (0
		// before its first step), as the engine's round does in a
		// consistent checkpoint.
		v := &fakeView{round: played, n: n}
		if w, ok := a.(*Wakeup); ok {
			v.round = w.lastRound
		}
		for range 3 {
			v.round++
			a.Step(v)
		}
	})
}
