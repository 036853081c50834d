package adversary

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"dynlocal/internal/dyngraph"
	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
)

func testP2P(n int) *P2PChurn {
	return &P2PChurn{
		N:            n,
		Init:         n / 8,
		JoinPerRound: 2,
		Degree:       3,
		SessionAlpha: 1.5,
		SessionMin:   4,
		RejoinDelay:  2,
		Events:       []MassDeparture{{Round: 12, Frac: 0.4}},
		Seed:         23,
	}
}

// rawSteps drives an adversary through raw (unresolved) steps, deep
// copying each one, using a minimal view that only advances the round.
func rawSteps(a Adversary, n, rounds int) []Step {
	v := newFakeView(n)
	var out []Step
	for r := 1; r <= rounds; r++ {
		v.round = r
		st := a.Step(v)
		out = append(out, Step{
			Wake:        append([]graph.NodeID(nil), st.Wake...),
			EdgeAdds:    append([]graph.EdgeKey(nil), st.EdgeAdds...),
			EdgeRemoves: append([]graph.EdgeKey(nil), st.EdgeRemoves...),
		})
	}
	return out
}

func stepsEqual(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.Equal(a[i].Wake, b[i].Wake) ||
			!slices.Equal(a[i].EdgeAdds, b[i].EdgeAdds) ||
			!slices.Equal(a[i].EdgeRemoves, b[i].EdgeRemoves) {
			return false
		}
	}
	return true
}

// TestP2PChurnSameSeedDeterminism pins that a (parameters, seed) pair
// names exactly one step sequence, and that the seed actually matters.
func TestP2PChurnSameSeedDeterminism(t *testing.T) {
	const n, rounds = 256, 40
	a := rawSteps(testP2P(n), n, rounds)
	b := rawSteps(testP2P(n), n, rounds)
	if !stepsEqual(a, b) {
		t.Fatal("same-seed P2PChurn runs diverged")
	}
	other := testP2P(n)
	other.Seed = 99
	if stepsEqual(a, rawSteps(other, n, rounds)) {
		t.Fatal("different seeds produced identical step sequences")
	}
}

// TestP2PChurnDeltaContract folds every emitted step and verifies the
// full delta-native contract: strictly ascending keys, adds absent
// before, removes present before, edges only between woken nodes, and —
// the rejoin-with-fresh-id model — wake ids that are never reused.
func TestP2PChurnDeltaContract(t *testing.T) {
	const n, rounds = 256, 60
	adv := testP2P(n)
	v := newFakeView(n)
	m := graphtest.NewDiffModel(n)
	woken := make(map[graph.NodeID]bool)
	maxWake := graph.NodeID(-1)
	joins, departs := 0, 0
	for r := 1; r <= rounds; r++ {
		v.round = r
		st := adv.Step(v)
		for _, id := range st.Wake {
			if id < 0 || int(id) >= n {
				t.Fatalf("round %d: wake id %d outside [0,%d)", r, id, n)
			}
			if woken[id] {
				t.Fatalf("round %d: node id %d woken twice — rejoin must use a fresh id", r, id)
			}
			if id <= maxWake {
				t.Fatalf("round %d: wake id %d not fresh (allocator high-water %d)", r, id, maxWake)
			}
			woken[id] = true
			maxWake = id
			joins++
		}
		m.Step(t, st.EdgeAdds, st.EdgeRemoves)
		for _, k := range st.EdgeAdds {
			if u, w := k.Nodes(); !woken[u] || !woken[w] {
				t.Fatalf("round %d: edge %v touches a node that never woke", r, k)
			}
		}
		departs += len(st.EdgeRemoves)
	}
	if joins <= adv.Init {
		t.Fatalf("no churn joins happened beyond the initial population (%d)", joins)
	}
	if departs == 0 {
		t.Fatal("no departures happened in 60 rounds")
	}
}

// TestP2PChurnMassDeparture pins the targeted event: at the scheduled
// round the then-highest-degree node loses all its edges and, being
// departed, never appears in a later add.
func TestP2PChurnMassDeparture(t *testing.T) {
	const n, rounds, eventRound = 512, 30, 15
	adv := testP2P(n)
	adv.Events = []MassDeparture{{Round: eventRound, Frac: 0.5}}
	v := newFakeView(n)
	deg := make(map[graph.NodeID]int)
	fold := func(st *Step) {
		for _, k := range st.EdgeAdds {
			u, w := k.Nodes()
			deg[u]++
			deg[w]++
		}
		for _, k := range st.EdgeRemoves {
			u, w := k.Nodes()
			deg[u]--
			deg[w]--
		}
	}
	var hub graph.NodeID
	for r := 1; r < eventRound; r++ {
		v.round = r
		st := adv.Step(v)
		fold(&st)
	}
	// The pre-event hub: highest degree, smallest id on ties — exactly the
	// node the event must take out first.
	best := -1
	for id := graph.NodeID(0); int(id) < n; id++ {
		if d := deg[id]; d > best {
			best, hub = d, id
		}
	}
	if best <= 0 {
		t.Fatal("no edges before the event round")
	}
	v.round = eventRound
	st := adv.Step(v)
	fold(&st)
	if len(st.EdgeRemoves) == 0 {
		t.Fatal("mass-departure round removed no edges")
	}
	if deg[hub] != 0 {
		t.Fatalf("hub %d still has degree %d after the mass departure", hub, deg[hub])
	}
	for r := eventRound + 1; r <= rounds; r++ {
		v.round = r
		st := adv.Step(v)
		for _, k := range st.EdgeAdds {
			u, w := k.Nodes()
			if u == hub || w == hub {
				t.Fatalf("round %d: departed hub %d got a new edge %v", r, hub, k)
			}
		}
		fold(&st)
	}
}

// TestScriptedStreamReplaysRecording round-trips P2PChurn's step sequence
// through the streaming trace plane: record every raw step with a
// StreamEncoder, replay with ScriptedStream over a StreamDecoder, and
// require the identical sequence — then empty steps (frozen topology)
// after the stream ends, with no error.
func TestScriptedStreamReplaysRecording(t *testing.T) {
	const n, rounds = 128, 25
	orig := rawSteps(testP2P(n), n, rounds)
	var buf bytes.Buffer
	enc, err := dyngraph.NewStreamEncoder(&buf, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range orig {
		if err := enc.WriteRound(st.Wake, st.EdgeAdds, st.EdgeRemoves); err != nil {
			t.Fatalf("recording round %d: %v", i+1, err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := dyngraph.NewStreamDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ss := NewScriptedStream(dec)
	replayed := rawSteps(ss, n, rounds)
	if !stepsEqual(orig, replayed) {
		t.Fatal("streamed replay diverged from the recorded steps")
	}
	v := newFakeView(n)
	for r := rounds + 1; r <= rounds+4; r++ {
		v.round = r
		st := ss.Step(v)
		if len(st.Wake) != 0 || len(st.EdgeAdds) != 0 || len(st.EdgeRemoves) != 0 {
			t.Fatalf("round %d past stream end: expected empty step, got %+v", r, st)
		}
	}
	if err := ss.Err(); err != nil {
		t.Fatalf("clean replay reported error: %v", err)
	}
}

// TestScriptedStreamSurfacesDecodeError pins the untrusted-input story:
// a stream that goes corrupt mid-replay freezes the topology (empty
// steps) and reports the decode error via Err.
func TestScriptedStreamSurfacesDecodeError(t *testing.T) {
	const n, rounds = 64, 10
	orig := rawSteps(testP2P(n), n, rounds)
	var buf bytes.Buffer
	enc, err := dyngraph.NewStreamEncoder(&buf, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range orig {
		if err := enc.WriteRound(st.Wake, st.EdgeAdds, st.EdgeRemoves); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	dec, err := dyngraph.NewStreamDecoder(bytes.NewReader(wire[:len(wire)-3]))
	if err != nil {
		t.Fatal(err)
	}
	ss := NewScriptedStream(dec)
	v := newFakeView(n)
	sawError := false
	for r := 1; r <= rounds+2; r++ {
		v.round = r
		st := ss.Step(v)
		if ss.Err() != nil {
			sawError = true
			if len(st.Wake)+len(st.EdgeAdds)+len(st.EdgeRemoves) != 0 {
				t.Fatalf("round %d: non-empty step after decode error", r)
			}
		}
	}
	if !sawError {
		t.Fatal("truncated stream replayed without error")
	}
	if err := ss.Err(); err == nil || errors.Is(err, nil) {
		t.Fatal("Err() lost the decode error")
	}
}
