package engine

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// ckAlgo is a checkpointable flood-max with quiescence: a node goes
// quiet after its output has been stable for two rounds, so runs
// exercise the sparse drop/grace machinery that a checkpoint must
// round-trip (quiet counters, shrunken active list, re-touch on churn).
type ckAlgo struct{}

func (ckAlgo) Name() string                    { return "ck-flood" }
func (ckAlgo) NewNode(v graph.NodeID) NodeProc { return &ckNode{best: int64(v)} }

type ckNode struct {
	best   int64
	stable int32
}

func (p *ckNode) Start(ctx *Ctx, input problems.Value) {
	if input != problems.Bot {
		p.best = int64(input)
	}
}

func (p *ckNode) Broadcast(_ *Ctx, buf []SubMsg) []SubMsg {
	if p.stable >= 2 {
		return buf
	}
	return append(buf, SubMsg{Kind: 1, A: p.best})
}

func (p *ckNode) Process(_ *Ctx, in []Incoming, _ int) {
	improved := false
	for _, m := range in {
		if m.M.A > p.best {
			p.best, improved = m.M.A, true
		}
	}
	if improved {
		p.stable = 0
	} else {
		p.stable++
	}
}

func (p *ckNode) Output() problems.Value { return problems.Value(p.best) }
func (p *ckNode) Quiescent() bool        { return p.stable >= 2 }

func (p *ckNode) SaveState(w *ckpt.Writer) {
	w.Section(0x7f)
	w.Varint(p.best)
	w.Varint(int64(p.stable))
}

func (p *ckNode) LoadState(r *ckpt.Reader) {
	r.Section(0x7f)
	p.best = r.Varint()
	p.stable = int32(r.Varint())
}

// checkpointAdversaries builds the matrix of adversary constructors for
// the resume tests: churn and p2p carry mutable state (Checkpointer),
// alternator is stateless-by-round and restores by round number alone.
func checkpointAdversaries(n int) map[string]func() adversary.Adversary {
	return map[string]func() adversary.Adversary{
		"churn": churnAdv(n),
		"alternator": func() adversary.Adversary {
			s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
			a := graph.GNP(n, 5.0/float64(n), s)
			b := graph.GNP(n, 2.0/float64(n), s)
			return &adversary.Alternator{A: a, B: b, Period: 3}
		},
		"p2p": func() adversary.Adversary {
			return &adversary.P2PChurn{
				N: n, Init: n / 4, JoinPerRound: 2, Degree: 3,
				SessionMin: 6, RejoinDelay: 3, Seed: 23,
				Events: []adversary.MassDeparture{{Round: 9, Frac: 0.2}},
			}
		},
	}
}

// runWithCheckpoint plays rounds like collectTrace but snapshots the
// engine into a buffer right after round k completes, and keeps going.
func runWithCheckpoint(t *testing.T, cfg Config, adv adversary.Adversary, algo Algorithm, rounds, k int) (roundTrace, []byte) {
	t.Helper()
	e := New(cfg, adv, algo)
	var tr roundTrace
	e.OnRound(func(info *RoundInfo) {
		tr.outputs = append(tr.outputs, append([]problems.Value(nil), info.Outputs...))
		tr.changed = append(tr.changed, append([]graph.NodeID(nil), info.Changed...))
		tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), info.EdgeAdds...))
		tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), info.EdgeRemoves...))
		tr.messages = append(tr.messages, info.Messages)
		tr.bits = append(tr.bits, info.Bits)
	})
	var buf bytes.Buffer
	if k == 0 {
		if err := e.WriteRecord(&buf, true, nil); err != nil {
			t.Fatalf("checkpoint at round 0: %v", err)
		}
	}
	for r := 1; r <= rounds; r++ {
		e.Step()
		if r == k {
			if err := e.WriteRecord(&buf, true, nil); err != nil {
				t.Fatalf("checkpoint at round %d: %v", k, err)
			}
		}
	}
	return tr, buf.Bytes()
}

// resumeTrace restores the checkpoint into a fresh engine and plays the
// remaining rounds, recording their trace.
func resumeTrace(t *testing.T, cfg Config, adv adversary.Adversary, algo Algorithm, ck []byte, rounds int) roundTrace {
	t.Helper()
	e := New(cfg, adv, algo)
	if err := e.ReadChain(bytes.NewReader(ck), nil, nil); err != nil {
		t.Fatalf("restore: %v", err)
	}
	var tr roundTrace
	e.OnRound(func(info *RoundInfo) {
		tr.outputs = append(tr.outputs, append([]problems.Value(nil), info.Outputs...))
		tr.changed = append(tr.changed, append([]graph.NodeID(nil), info.Changed...))
		tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), info.EdgeAdds...))
		tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), info.EdgeRemoves...))
		tr.messages = append(tr.messages, info.Messages)
		tr.bits = append(tr.bits, info.Bits)
	})
	for e.Round() < rounds {
		e.Step()
	}
	return tr
}

// tail slices a trace to the rounds after k (0-indexed entry k onward).
func (tr roundTrace) tail(k int) roundTrace {
	return roundTrace{
		outputs: tr.outputs[k:], changed: tr.changed[k:],
		adds: tr.adds[k:], removes: tr.removes[k:],
		messages: tr.messages[k:], bits: tr.bits[k:],
	}
}

// TestCheckpointResumeEquivalence checkpoints a running engine at round
// k, restores into a fresh engine — possibly with a different worker
// count — and requires the resumed rounds k+1..R to be bit-identical to
// the uninterrupted run: outputs, changed lists, topology deltas and
// message/bit accounting.
func TestCheckpointResumeEquivalence(t *testing.T) {
	const n = 96
	const rounds = 24
	for name, mk := range checkpointAdversaries(n) {
		for _, k := range []int{0, 1, 7, rounds - 1} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/k=%d/w=%d", name, k, w), func(t *testing.T) {
					cfg := Config{N: n, Seed: 42, Workers: 3}
					ref, ck := runWithCheckpoint(t, cfg, mk(), ckAlgo{}, rounds, k)
					cfg.Workers = w
					res := resumeTrace(t, cfg, mk(), ckAlgo{}, ck, rounds)
					if len(res.outputs) != rounds-k {
						t.Fatalf("resumed %d rounds, want %d", len(res.outputs), rounds-k)
					}
					diffTraces(t, "resumed", ref.tail(k), res)
				})
			}
		}
	}
}

// TestCheckpointResumeWithInput pins the input-vector round trip: inputs
// affect only future wake-ups, and the header validates them.
func TestCheckpointResumeWithInput(t *testing.T) {
	const n = 48
	const rounds = 12
	const k = 5
	input := make([]problems.Value, n)
	for i := range input {
		input[i] = problems.Value(i % 5)
	}
	cfg := Config{N: n, Seed: 3, Workers: 2, Input: input}
	ref, ck := runWithCheckpoint(t, cfg, churnAdv(n)(), ckAlgo{}, rounds, k)
	res := resumeTrace(t, cfg, churnAdv(n)(), ckAlgo{}, ck, rounds)
	diffTraces(t, "input resumed", ref.tail(k), res)
}

// TestCheckpointDeterministicBytes requires two checkpoints of identical
// runs to be byte-identical — checkpoint artifacts are comparable.
func TestCheckpointDeterministicBytes(t *testing.T) {
	const n = 64
	mk := checkpointAdversaries(n)["p2p"]
	cfg := Config{N: n, Seed: 11, Workers: 2}
	_, a := runWithCheckpoint(t, cfg, mk(), ckAlgo{}, 10, 10)
	_, b := runWithCheckpoint(t, cfg, mk(), ckAlgo{}, 10, 10)
	if !bytes.Equal(a, b) {
		t.Fatalf("checkpoints of identical runs differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestRestoreRejects pins the restore-side validation: configuration
// mismatches, corruption and truncation all surface as errors instead of
// silently divergent runs.
func TestRestoreRejects(t *testing.T) {
	const n = 48
	cfg := Config{N: n, Seed: 5, Workers: 1}
	_, ck := runWithCheckpoint(t, cfg, churnAdv(n)(), ckAlgo{}, 8, 6)

	fresh := func(c Config) *Engine { return New(c, churnAdv(n)(), ckAlgo{}) }

	t.Run("used-engine", func(t *testing.T) {
		e := fresh(cfg)
		e.Step()
		if err := e.ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore onto stepped engine succeeded")
		}
	})
	t.Run("wrong-algo", func(t *testing.T) {
		e := New(cfg, churnAdv(n)(), floodAlgo{})
		if err := e.ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore under different algorithm succeeded")
		}
	})
	t.Run("wrong-seed", func(t *testing.T) {
		c := cfg
		c.Seed = 6
		if err := fresh(c).ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore under different seed succeeded")
		}
	})
	t.Run("wrong-n", func(t *testing.T) {
		c := cfg
		c.N = n + 1
		e := New(c, churnAdv(n+1)(), ckAlgo{})
		if err := e.ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore under different N succeeded")
		}
	})
	t.Run("wrong-lag", func(t *testing.T) {
		c := cfg
		c.OutputLag = 3
		if err := fresh(c).ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore under different OutputLag succeeded")
		}
	})
	t.Run("stateless-adversary-mismatch", func(t *testing.T) {
		s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
		g := graph.GNP(n, 4.0/float64(n), s)
		e := New(cfg, adversary.Static{G: g}, ckAlgo{})
		if err := e.ReadChain(bytes.NewReader(ck), nil, nil); err == nil {
			t.Fatal("restore of churn checkpoint onto stateless adversary succeeded")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 0; cut < len(ck); cut += 17 {
			if err := fresh(cfg).ReadChain(bytes.NewReader(ck[:cut]), nil, nil); err == nil {
				t.Fatalf("restore of %d-byte prefix succeeded", cut)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		for off := 0; off < len(ck); off += 11 {
			bad := append([]byte(nil), ck...)
			bad[off] ^= 0x20
			if err := fresh(cfg).ReadChain(bytes.NewReader(bad), nil, nil); err == nil {
				t.Fatalf("restore with byte %d flipped succeeded", off)
			}
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if err := fresh(cfg).ReadChain(bytes.NewReader([]byte("not a checkpoint")), nil, nil); err == nil {
			t.Fatal("restore of garbage succeeded")
		}
	})
}

// TestRestoreRefusesRoundBeyondInt32 pins the header check that keeps a
// record's round within the int32 rounds the engine keeps per node (wake
// rounds, and the rounds behind Ctx.Steady).
func TestRestoreRefusesRoundBeyondInt32(t *testing.T) {
	w := ckpt.NewWriter(nil)
	w.String(ckptMagic)
	w.Section(tagHeader)
	w.Uvarint(1) // a base record
	w.Uvarint(0)
	w.Int(0)
	w.Int(math.MaxInt32 + 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := ckpt.NewReader(w.Bytes())
	New(Config{N: 4, Seed: 1, Workers: 1}, adversary.Static{G: graph.Empty(4)}, ckAlgo{}).RestoreFrom(r)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "exceeds the engine's int32") {
		t.Fatalf("err = %v, want the round refused", err)
	}
}
