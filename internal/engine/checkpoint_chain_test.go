package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// recordChainTrace attaches the standard trace observer used by the
// chain tests.
func recordChainTrace(e *Engine, tr *roundTrace) {
	e.OnRound(func(info *RoundInfo) {
		tr.outputs = append(tr.outputs, append([]problems.Value(nil), info.Outputs...))
		tr.changed = append(tr.changed, append([]graph.NodeID(nil), info.Changed...))
		tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), info.EdgeAdds...))
		tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), info.EdgeRemoves...))
		tr.messages = append(tr.messages, info.Messages)
		tr.bits = append(tr.bits, info.Bits)
	})
}

// buildChain runs an engine for rounds rounds, starting a checkpoint
// chain at round base and appending one delta record every stride rounds
// after it. It returns the reference trace, the chain bytes, the byte
// offset of every chain prefix (prefixes[i] ends after record i) and the
// round each record captured.
func buildChain(t *testing.T, cfg Config, adv adversary.Adversary, algo Algorithm, rounds, base, stride int) (roundTrace, []byte, []int, []int) {
	t.Helper()
	e := New(cfg, adv, algo)
	var tr roundTrace
	recordChainTrace(e, &tr)
	var buf bytes.Buffer
	var offsets, recRounds []int
	for r := 1; r <= rounds; r++ {
		e.Step()
		switch {
		case r == base:
			if err := e.WriteRecord(&buf, true, nil); err != nil {
				t.Fatalf("chain base at round %d: %v", r, err)
			}
			offsets = append(offsets, buf.Len())
			recRounds = append(recRounds, r)
		case r > base && (r-base)%stride == 0:
			if err := e.WriteRecord(&buf, false, nil); err != nil {
				t.Fatalf("chain delta at round %d: %v", r, err)
			}
			offsets = append(offsets, buf.Len())
			recRounds = append(recRounds, r)
		}
	}
	return tr, buf.Bytes(), offsets, recRounds
}

// resumeChainTrace restores a chain prefix into a fresh engine and plays
// the remaining rounds, recording their trace.
func resumeChainTrace(t *testing.T, cfg Config, adv adversary.Adversary, algo Algorithm, chain []byte, rounds int) roundTrace {
	t.Helper()
	e := New(cfg, adv, algo)
	if err := e.ReadChain(bytes.NewReader(chain), nil, nil); err != nil {
		t.Fatalf("restore chain: %v", err)
	}
	var tr roundTrace
	recordChainTrace(e, &tr)
	for e.Round() < rounds {
		e.Step()
	}
	return tr
}

// TestCheckpointChainResumeFromEveryPrefix restores every prefix of an
// incremental chain — base only, base+1 delta, … — into a fresh engine
// and requires the resumed rounds to be bit-identical to the
// uninterrupted run, under different worker counts.
func TestCheckpointChainResumeFromEveryPrefix(t *testing.T) {
	const n = 96
	const rounds = 24
	for name, mk := range checkpointAdversaries(n) {
		t.Run(name, func(t *testing.T) {
			cfg := Config{N: n, Seed: 42, Workers: 3}
			ref, chain, offsets, recRounds := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 4, 3)
			for i, off := range offsets {
				for _, w := range []int{1, 4} {
					t.Run(fmt.Sprintf("prefix=%d/w=%d", i, w), func(t *testing.T) {
						c := cfg
						c.Workers = w
						res := resumeChainTrace(t, c, mk(), ckAlgo{}, chain[:off], rounds)
						if len(res.outputs) != rounds-recRounds[i] {
							t.Fatalf("resumed %d rounds, want %d", len(res.outputs), rounds-recRounds[i])
						}
						diffTraces(t, fmt.Sprintf("chain prefix %d", i), ref.tail(recRounds[i]), res)
					})
				}
			}
		})
	}
}

// TestResumedGraphMatchesUninterrupted checks the graph a restored engine
// builds from its adjacency rows: in the first round after ReadChain, for
// a base-only and a base+delta chain prefix, Graph().EdgeKeys() equals the
// uninterrupted run's.
func TestResumedGraphMatchesUninterrupted(t *testing.T) {
	const n = 96
	const rounds = 16
	for name, mk := range checkpointAdversaries(n) {
		t.Run(name, func(t *testing.T) {
			cfg := Config{N: n, Seed: 42, Workers: 2}
			_, chain, offsets, _ := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 4, 3)
			ref := New(cfg, mk(), ckAlgo{})
			var want [][]graph.EdgeKey
			ref.OnRound(func(info *RoundInfo) {
				want = append(want, slices.Clone(info.Graph().EdgeKeys()))
			})
			ref.Run(rounds)
			for i, prefix := range []string{"base", "base+delta"} {
				e := New(cfg, mk(), ckAlgo{})
				if err := e.ReadChain(bytes.NewReader(chain[:offsets[i]]), nil, nil); err != nil {
					t.Fatalf("%s: restore: %v", prefix, err)
				}
				info := e.Step()
				if got := info.Graph().EdgeKeys(); !slices.Equal(got, want[info.Round-1]) {
					t.Fatalf("%s: round %d graph has %d edges, uninterrupted run %d (or differs)",
						prefix, info.Round, len(got), len(want[info.Round-1]))
				}
			}
		})
	}
}

// TestCheckpointChainAppendAfterRestore requires a restored engine to
// keep extending the same chain: restore a prefix, step on, append a
// delta, and the extended chain must restore bit-identically again.
func TestCheckpointChainAppendAfterRestore(t *testing.T) {
	const n = 64
	const rounds = 16
	mk := churnAdv(n)
	cfg := Config{N: n, Seed: 42, Workers: 2}
	ref, chain, offsets, recRounds := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 3, 4)
	i := len(offsets) / 2
	e := New(cfg, mk(), ckAlgo{})
	if err := e.ReadChain(bytes.NewReader(chain[:offsets[i]]), nil, nil); err != nil {
		t.Fatalf("restore: %v", err)
	}
	extBuf := bytes.NewBuffer(append([]byte(nil), chain[:offsets[i]]...))
	e.Step()
	e.Step()
	if err := e.WriteRecord(extBuf, false, nil); err != nil {
		t.Fatalf("append after restore: %v", err)
	}
	wantRound := recRounds[i] + 2
	res := resumeChainTrace(t, cfg, mk(), ckAlgo{}, extBuf.Bytes(), rounds)
	diffTraces(t, "extended chain", ref.tail(wantRound), res)
}

// TestCheckpointChainRejects pins the chain-abuse matrix: a delta over
// the wrong base, reordered, skipped or duplicated records, truncation
// at every offset, bit corruption, and a bare (non-chain) stream all
// fail without producing a silently divergent engine.
func TestCheckpointChainRejects(t *testing.T) {
	const n = 48
	const rounds = 12
	mk := churnAdv(n)
	cfg := Config{N: n, Seed: 5, Workers: 1}
	_, chain, offsets, _ := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 3, 2)
	if len(offsets) < 4 {
		t.Fatalf("chain too short for abuse matrix: %d records", len(offsets))
	}
	fresh := func() *Engine { return New(cfg, mk(), ckAlgo{}) }
	record := func(i int) []byte { return chain[offsets[i-1]:offsets[i]] }

	t.Run("wrong-base", func(t *testing.T) {
		// A structurally identical chain from a different seed: its deltas
		// must not apply over this chain's base.
		c2 := cfg
		c2.Seed = 6
		_, chainB, offB, _ := buildChain(t, c2, mk(), ckAlgo{}, rounds, 3, 2)
		mixed := append([]byte(nil), chain[:offsets[0]]...)
		mixed = append(mixed, chainB[offB[0]:offB[1]]...)
		if err := fresh().ReadChain(bytes.NewReader(mixed), nil, nil); err == nil {
			t.Fatal("delta from a different chain applied over foreign base")
		}
	})
	t.Run("skipped-record", func(t *testing.T) {
		mixed := append([]byte(nil), chain[:offsets[0]]...)
		mixed = append(mixed, record(2)...) // skip record 1
		if err := fresh().ReadChain(bytes.NewReader(mixed), nil, nil); err == nil {
			t.Fatal("chain with a skipped delta restored")
		}
	})
	t.Run("reordered-records", func(t *testing.T) {
		mixed := append([]byte(nil), chain[:offsets[0]]...)
		mixed = append(mixed, record(2)...)
		mixed = append(mixed, record(1)...)
		if err := fresh().ReadChain(bytes.NewReader(mixed), nil, nil); err == nil {
			t.Fatal("chain with reordered deltas restored")
		}
	})
	t.Run("duplicated-record", func(t *testing.T) {
		mixed := append([]byte(nil), chain[:offsets[1]]...)
		mixed = append(mixed, record(1)...)
		if err := fresh().ReadChain(bytes.NewReader(mixed), nil, nil); err == nil {
			t.Fatal("chain with a duplicated delta restored")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Every truncation point must either restore a valid shorter prefix
		// (exactly at a record boundary) or fail — never a half-applied tail.
		boundary := make(map[int]bool, len(offsets))
		for _, off := range offsets {
			boundary[off] = true
		}
		for cut := 0; cut < len(chain); cut++ {
			err := fresh().ReadChain(bytes.NewReader(chain[:cut]), nil, nil)
			if boundary[cut] {
				if err != nil {
					t.Fatalf("restore at record boundary %d failed: %v", cut, err)
				}
			} else if err == nil {
				t.Fatalf("restore of torn %d-byte prefix succeeded", cut)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		for off := 0; off < len(chain); off += 13 {
			bad := append([]byte(nil), chain...)
			bad[off] ^= 0x40
			if err := fresh().ReadChain(bytes.NewReader(bad), nil, nil); err == nil {
				t.Fatalf("restore with byte %d flipped succeeded", off)
			}
		}
	})
	t.Run("bare-stream", func(t *testing.T) {
		e := New(cfg, mk(), ckAlgo{})
		for r := 0; r < 5; r++ {
			e.Step()
		}
		// One record's stream without the chain container around it.
		cw := ckpt.NewWriter(nil)
		e.CheckpointTo(cw, true)
		if err := cw.Close(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		if err := fresh().ReadChain(bytes.NewReader(cw.Bytes()), nil, nil); err == nil {
			t.Fatal("ReadChain accepted a bare record stream")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := fresh().ReadChain(bytes.NewReader(nil), nil, nil); err == nil {
			t.Fatal("ReadChain accepted an empty stream")
		}
	})
	t.Run("delta-without-base", func(t *testing.T) {
		e := New(cfg, mk(), ckAlgo{})
		e.Step()
		var buf bytes.Buffer
		if err := e.WriteRecord(&buf, false, nil); err == nil {
			t.Fatal("delta record without a chain base succeeded")
		}
	})
}

// TestCheckpointChainRebase pins the rebase workflow dynsim's
// -checkpoint-full-every knob uses: a fresh base record on a new
// buffer restarts the sequence, and the rebased chain restores to a run
// bit-identical to the uninterrupted one.
func TestCheckpointChainRebase(t *testing.T) {
	const n = 64
	const rounds = 20
	mk := churnAdv(n)
	cfg := Config{N: n, Seed: 11, Workers: 2}
	e := New(cfg, mk(), ckAlgo{})
	var ref roundTrace
	recordChainTrace(e, &ref)
	var old bytes.Buffer
	for r := 1; r <= 8; r++ {
		e.Step()
		switch r {
		case 2:
			if err := e.WriteRecord(&old, true, nil); err != nil {
				t.Fatalf("chain base: %v", err)
			}
		case 4, 6, 8:
			if err := e.WriteRecord(&old, false, nil); err != nil {
				t.Fatalf("chain delta: %v", err)
			}
		}
	}
	if got := e.ChainSeq(); got != 4 {
		t.Fatalf("ChainSeq after 4 records = %d", got)
	}
	// Rebase: fresh base capturing the current state on a new buffer.
	var rebased bytes.Buffer
	if err := e.WriteRecord(&rebased, true, nil); err != nil {
		t.Fatalf("rebase: %v", err)
	}
	if got := e.ChainSeq(); got != 1 {
		t.Fatalf("ChainSeq after rebase = %d", got)
	}
	lastDelta := 8
	for r := 9; r <= rounds; r++ {
		e.Step()
		if r%3 == 0 {
			if err := e.WriteRecord(&rebased, false, nil); err != nil {
				t.Fatalf("post-rebase delta: %v", err)
			}
			lastDelta = r
		}
	}
	res := resumeChainTrace(t, cfg, mk(), ckAlgo{}, rebased.Bytes(), rounds)
	diffTraces(t, "rebased chain", ref.tail(lastDelta), res)
}

// checkpointAdversariesWrapped extends the adversary matrix with the
// newly checkpointable wrappers: Wakeup (staggered schedule over churn)
// and LocalStatic (frozen zone over churn).
func checkpointAdversariesWrapped(n int) map[string]func() adversary.Adversary {
	return map[string]func() adversary.Adversary{
		"wakeup": func() adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    churnAdv(n)(),
				Schedule: adversary.StaggeredSchedule(n, n/6),
			}
		},
		"localstatic": func() adversary.Adversary {
			s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
			base := graph.GNP(n, 6.0/float64(n), s)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: 17},
				Base:      base,
				Protected: []graph.NodeID{1, 5, 9},
				Alpha:     2,
			}
		},
	}
}

// TestCheckpointWrapperAdversaries runs both one-record and chain
// resume equivalence for the wrapper adversaries that gained
// Checkpointer support: LocalStatic and Wakeup.
func TestCheckpointWrapperAdversaries(t *testing.T) {
	const n = 96
	const rounds = 20
	for name, mk := range checkpointAdversariesWrapped(n) {
		t.Run(name+"/full", func(t *testing.T) {
			cfg := Config{N: n, Seed: 42, Workers: 2}
			ref, ck := runWithCheckpoint(t, cfg, mk(), ckAlgo{}, rounds, 7)
			res := resumeTrace(t, cfg, mk(), ckAlgo{}, ck, rounds)
			diffTraces(t, name+" resumed", ref.tail(7), res)
		})
		t.Run(name+"/chain", func(t *testing.T) {
			cfg := Config{N: n, Seed: 42, Workers: 2}
			ref, chain, offsets, recRounds := buildChain(t, cfg, mk(), ckAlgo{}, rounds, 3, 3)
			for i, off := range offsets {
				res := resumeChainTrace(t, cfg, mk(), ckAlgo{}, chain[:off], rounds)
				diffTraces(t, fmt.Sprintf("%s chain prefix %d", name, i), ref.tail(recRounds[i]), res)
			}
		})
	}
}

// forgedAdv plays adv's topology but writes forged's state into
// checkpoint records: forged is stepped alongside, so its section is
// well formed, and the record's CRC is valid, but the section describes
// other edges than the record's topology.
type forgedAdv struct {
	adversary.Adversary
	forged interface {
		adversary.Adversary
		adversary.Checkpointer
	}
}

func (f forgedAdv) Step(v adversary.View) adversary.Step {
	f.forged.Step(v)
	return f.Adversary.Step(v)
}
func (f forgedAdv) SaveState(w *ckpt.Writer) { f.forged.SaveState(w) }
func (f forgedAdv) LoadState(r *ckpt.Reader) { f.forged.LoadState(r) }

// TestCheckpointChainAdversaryMatchesTopology: Churn, EdgeMarkov and
// P2PChurn keep their own copy of the live edges, restored from the
// adversary section while the engine's topology comes from the topology
// sections. A record whose sections disagree must fail the read, before
// a later Step can remove an edge the topology does not have; the honest
// record of the same run must read and resume. The dense=false suffix keeps the
// subtest IDs stable; the engine has no other round walk.
func TestCheckpointChainAdversaryMatchesTopology(t *testing.T) {
	const n = 48
	s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
	base := graph.GNP(n, 6.0/float64(n), s)
	churn := func(add, del int, seed uint64) *adversary.Churn {
		return &adversary.Churn{Base: base, Add: add, Del: del, Seed: seed}
	}
	markov := func(seed uint64) *adversary.EdgeMarkov {
		return &adversary.EdgeMarkov{Footprint: base, POn: 0.3, POff: 0.3, Seed: seed}
	}
	p2p := func(seed uint64) *adversary.P2PChurn {
		return &adversary.P2PChurn{N: n, Init: 12, JoinPerRound: 2, Degree: 3, SessionMin: 3, Seed: seed}
	}
	cases := []struct {
		name    string
		live    func() adversary.Adversary
		forged  func() forgedAdv
		wantErr string
	}{
		{"churn-honest", func() adversary.Adversary { return churn(2, 2, 17) },
			func() forgedAdv { return forgedAdv{churn(2, 2, 17), churn(2, 2, 17)} }, ""},
		{"churn-other-edges", func() adversary.Adversary { return churn(2, 2, 17) },
			func() forgedAdv { return forgedAdv{churn(2, 2, 17), churn(2, 2, 18)} }, "is not in the topology"},
		{"churn-other-count", func() adversary.Adversary { return churn(2, 2, 17) },
			func() forgedAdv { return forgedAdv{churn(2, 2, 17), churn(3, 1, 17)} }, "edges, the topology"},
		{"markov-honest", func() adversary.Adversary { return markov(17) },
			func() forgedAdv { return forgedAdv{markov(17), markov(17)} }, ""},
		{"markov-other-edges", func() adversary.Adversary { return markov(17) },
			func() forgedAdv { return forgedAdv{markov(17), markov(18)} }, "edge-Markov"},
		{"p2p-honest", func() adversary.Adversary { return p2p(17) },
			func() forgedAdv { return forgedAdv{p2p(17), p2p(17)} }, ""},
		{"p2p-other-edges", func() adversary.Adversary { return p2p(17) },
			func() forgedAdv { return forgedAdv{p2p(17), p2p(18)} }, "P2P"},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/dense=false", func(t *testing.T) {
			cfg := Config{N: n, Seed: 5, Workers: 1}
			w := New(cfg, tc.forged(), ckAlgo{})
			w.Run(6)
			var buf bytes.Buffer
			if err := w.WriteRecord(&buf, true, nil); err != nil {
				t.Fatalf("write record: %v", err)
			}
			e := New(cfg, tc.live(), ckAlgo{})
			err := e.ReadChain(bytes.NewReader(buf.Bytes()), nil, nil)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("honest record: %v", err)
				}
				e.Run(6)
				return
			}
			if err == nil {
				t.Fatal("record whose adversary disagrees with its topology was read")
			}
			for _, want := range []string{"disagrees with the restored topology", tc.wantErr} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
		})
	}
}

// TestCheckpointChainRejectsBadTopologyDiff forges deltas whose edge
// diff adds an edge the parent record already has, or removes one it
// lacks. The read must fail with the adjacency's refusal, naming the
// edge. The dense=false suffix keeps the subtest IDs stable; the engine
// has no other round walk.
func TestCheckpointChainRejectsBadTopologyDiff(t *testing.T) {
	const n = 48
	mk := churnAdv(n)
	for _, tc := range []struct {
		name  string
		added bool
		want  string
	}{
		{"add-present", true, "engine: checkpoint adds edge %v, which is present"},
		{"remove-absent", false, "engine: checkpoint removes edge %v, which is absent"},
	} {
		t.Run(tc.name+"/dense=false", func(t *testing.T) {
			cfg := Config{N: n, Seed: 5, Workers: 1}
			e := New(cfg, mk(), ckAlgo{})
			e.Run(4)
			var chain bytes.Buffer
			if err := e.WriteRecord(&chain, true, nil); err != nil {
				t.Fatal(err)
			}
			e.Run(2)
			// The forged entry claims the opposite of the edge's
			// state at the last record.
			_, has := e.topology()
			var forged graph.EdgeKey
			for u := graph.NodeID(0); u < n && forged == 0; u++ {
				for v := u + 1; v < n && forged == 0; v++ {
					k := graph.MakeEdgeKey(u, v)
					if !e.topDirty.Has(k) && e.awake[u] && e.awake[v] && has(u, v) == tc.added {
						e.topDirty.Put(k, tc.added)
						forged = k
					}
				}
			}
			if forged == 0 {
				t.Fatal("no edge to forge")
			}
			if err := e.WriteRecord(&chain, false, nil); err != nil {
				t.Fatal(err)
			}
			err := New(cfg, mk(), ckAlgo{}).ReadChain(bytes.NewReader(chain.Bytes()), nil, nil)
			if want := fmt.Sprintf(tc.want, forged); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("forged diff read with err = %v, want one saying %q", err, want)
			}
		})
	}
}
