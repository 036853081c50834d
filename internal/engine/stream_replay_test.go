package engine

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/dyngraph"
)

// The trace plane's engine-facing contract: a run recorded through
// dyngraph.StreamEncoder and replayed through adversary.ScriptedStream is
// indistinguishable — outputs, accounting, Changed sets, round diffs —
// from the live run, whether the stream's source is a StreamDecoder over
// the wire bytes or the cursor of a decoded in-memory Trace, for every
// worker count. These tests are the streaming-vs-materialized
// equivalence leg of the trace conformance suite; run them under -race.

func p2pAdv(n int) func() adversary.Adversary {
	return func() adversary.Adversary {
		return &adversary.P2PChurn{
			N:            n,
			Init:         n / 8,
			JoinPerRound: 3,
			Degree:       3,
			SessionMin:   4,
			RejoinDelay:  2,
			Events:       []adversary.MassDeparture{{Round: 10, Frac: 0.4}},
			Seed:         23,
		}
	}
}

// recordWire runs the adversary on a single-worker reference engine and
// records every round's wake set and topology diff into the trace wire
// format.
func recordWire(t *testing.T, n, rounds int, mkAdv func() adversary.Adversary) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := dyngraph.NewStreamEncoder(&buf, n, rounds)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{N: n, Seed: 42, Workers: 1}, mkAdv(), sizedAlgo{})
	e.OnRound(func(info *RoundInfo) {
		if err := enc.WriteRound(info.Wake, info.EdgeAdds, info.EdgeRemoves); err != nil {
			t.Fatalf("recording round %d: %v", info.Round, err)
		}
	})
	e.Run(rounds)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamingVsMaterializedReplay records a P2PChurn run, then replays
// it three ways — live adversary, ScriptedStream over the cursor of a
// DecodeTrace, and ScriptedStream straight off the wire bytes — across
// worker counts, requiring bit-identical round traces. The replays run a
// few rounds past the recording's end, pinning that both sources persist
// the final topology as empty diffs.
func TestStreamingVsMaterializedReplay(t *testing.T) {
	const n = 256
	const recorded = 24
	const rounds = recorded + 4
	wire := recordWire(t, n, recorded, p2pAdv(n))

	tr, err := dyngraph.DecodeTrace(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("decoding recorded wire: %v", err)
	}
	// The in-memory cursor replay is the reference for all rounds
	// (including the frozen tail past the recording); the live run pins
	// the recorded prefix — past it the live adversary keeps churning.
	ref := collectTrace(n, 1, rounds, func() adversary.Adversary {
		return adversary.NewScriptedStream(tr.Cursor())
	}, sizedAlgo{})
	live := collectTrace(n, 1, recorded, p2pAdv(n), sizedAlgo{})
	diffTraces(t, "live-vs-scripted", live, ref)

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, w := range workerCounts {
		got := collectTrace(n, w, rounds, func() adversary.Adversary {
			return adversary.NewScriptedStream(tr.Cursor())
		}, sizedAlgo{})
		diffTraces(t, fmt.Sprintf("scripted/workers=%d", w), ref, got)

		var ss *adversary.ScriptedStream
		got = collectTrace(n, w, rounds, func() adversary.Adversary {
			dec, err := dyngraph.NewStreamDecoder(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("stream header: %v", err)
			}
			ss = adversary.NewScriptedStream(dec)
			return ss
		}, sizedAlgo{})
		if err := ss.Err(); err != nil {
			t.Fatalf("workers=%d: streamed replay error: %v", w, err)
		}
		diffTraces(t, fmt.Sprintf("streamed/workers=%d", w), ref, got)
	}
}

// TestP2PChurnDeterminismAcrossWorkerCounts runs the live P2PChurn
// adversary for Workers ∈ {1, 4, GOMAXPROCS} and requires identical
// per-round outputs, deltas and accounting — the engine-level
// same-seed determinism leg for the new adversary.
func TestP2PChurnDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = serialThreshold * 2
	const rounds = 24
	ref := collectTrace(n, 1, rounds, p2pAdv(n), sizedAlgo{})
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		got := collectTrace(n, w, rounds, p2pAdv(n), sizedAlgo{})
		diffTraces(t, fmt.Sprintf("p2p/workers=%d", w), ref, got)
	}
}

// TestScriptedCursorResumeFromEveryPrefix records a P2PChurn run into
// an in-memory Trace and replays it through ScriptedStream over the
// trace's cursor, writing a checkpoint chain (a base at round 4, then a
// delta every 3 rounds) that runs past the trace's end. Every chain
// prefix, resumed onto a fresh cursor replay, must equal the
// uninterrupted replay through the last round, including the rounds
// past the trace, where the topology persists as empty diffs.
func TestScriptedCursorResumeFromEveryPrefix(t *testing.T) {
	const n = 96
	const recorded = 16
	const rounds = recorded + 8
	tr, err := dyngraph.DecodeTrace(bytes.NewReader(recordWire(t, n, recorded, p2pAdv(n))))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() adversary.Adversary { return adversary.NewScriptedStream(tr.Cursor()) }
	cfg := Config{N: n, Seed: 42, Workers: 2}
	ref, chain, offsets, recRounds := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 4, 3)
	if last := recRounds[len(recRounds)-1]; last <= recorded {
		t.Fatalf("last record at round %d, want one past the trace's %d rounds", last, recorded)
	}
	for i, off := range offsets {
		res := resumeChainTrace(t, cfg, mk(), ckAlgo{}, chain[:off], rounds)
		diffTraces(t, fmt.Sprintf("chain prefix %d (round %d)", i, recRounds[i]), ref.tail(recRounds[i]), res)
	}
}

// roundPureReplay plays recorded steps by round number and keeps no
// checkpoint state, as the retired stateless in-memory replay did.
type roundPureReplay []adversary.Step

func (s roundPureReplay) Step(v adversary.View) adversary.Step {
	if r := v.Round(); r <= len(s) {
		return s[r-1]
	}
	return adversary.Step{}
}

// TestScriptedRefusesStatelessRecord pins that a record without
// adversary state, which the stateless replay used to write, is refused
// onto the replay adversary with an error naming it, instead of
// restarting the trace at its first round.
func TestScriptedRefusesStatelessRecord(t *testing.T) {
	const n = 64
	tr, err := dyngraph.DecodeTrace(bytes.NewReader(recordWire(t, n, 8, p2pAdv(n))))
	if err != nil {
		t.Fatal(err)
	}
	var steps roundPureReplay
	c := tr.Cursor()
	for {
		wake, adds, removes, err := c.NextDeltas()
		if err == io.EOF {
			break
		}
		steps = append(steps, adversary.Step{Wake: slices.Clone(wake), EdgeAdds: slices.Clone(adds), EdgeRemoves: slices.Clone(removes)})
	}
	cfg := Config{N: n, Seed: 42, Workers: 1}
	old := New(cfg, steps, ckAlgo{})
	old.Run(5)
	var buf bytes.Buffer
	if err := old.WriteRecord(&buf, true, nil); err != nil {
		t.Fatal(err)
	}
	e := New(cfg, adversary.NewScriptedStream(tr.Cursor()), ckAlgo{})
	err = e.ReadChain(bytes.NewReader(buf.Bytes()), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "ScriptedStream") {
		t.Fatalf("stateless replay record read with err = %v, want a refusal naming ScriptedStream", err)
	}
}
