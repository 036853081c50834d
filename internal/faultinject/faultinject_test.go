package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

const (
	matrixN      = 128
	matrixRounds = 48
)

// matrixAdversaries builds the three adversary families of the crash
// matrix: bounded edge churn, Markov edge flapping and peer-to-peer node
// churn with a scheduled mass departure — together they exercise every
// Checkpointer implementation.
func matrixAdversaries() map[string]func() adversary.Adversary {
	n := matrixN
	return map[string]func() adversary.Adversary{
		"churn": func() adversary.Adversary {
			base := graph.GNP(n, 6.0/float64(n), prf.NewStream(101, 0, 0, prf.PurposeWorkload))
			return &adversary.Churn{Base: base, Add: 10, Del: 10, Seed: 41}
		},
		"edgemarkov": func() adversary.Adversary {
			fp := graph.GNP(n, 8.0/float64(n), prf.NewStream(103, 0, 0, prf.PurposeWorkload))
			return &adversary.EdgeMarkov{Footprint: fp, POn: 0.7, POff: 0.1, Seed: 43}
		},
		"p2p": func() adversary.Adversary {
			return &adversary.P2PChurn{
				N: n, Init: n / 3, JoinPerRound: 3, Degree: 3,
				SessionMin: 6, RejoinDelay: 3, Seed: 47,
				Events: []adversary.MassDeparture{{Round: 17, Frac: 0.25}},
			}
		},
	}
}

func matrixAlgos() map[string]struct {
	mk func(n int) *core.Concat
	pc problems.PC
} {
	return map[string]struct {
		mk func(n int) *core.Concat
		pc problems.PC
	}{
		"mis":      {func(n int) *core.Concat { return mis.NewMIS(n) }, problems.MIS()},
		"coloring": {func(n int) *core.Concat { return coloring.NewColoring(n) }, problems.Coloring()},
	}
}

// TestCrashResumeEquivalence is the acceptance matrix of the checkpoint
// plane: for every adversary × algorithm cell, one uninterrupted
// reference run records all 48 rounds; each sampled crash round k then
// simulates a kill-and-restart — fresh engine, checker and adversary
// restored from the checkpoint — under worker counts 1 and 4, and every
// remaining round must match the reference bit for bit (outputs, wake,
// changed sets, topology deltas, message/bit accounting, T-dynamic
// verdicts and final checker totals).
func TestCrashResumeEquivalence(t *testing.T) {
	crashpoints := []int{1, 7, 19, 33, matrixRounds - 1}
	if testing.Short() {
		crashpoints = []int{7, 33}
	}
	for advName, mkAdv := range matrixAdversaries() {
		for algoName, al := range matrixAlgos() {
			s := Scenario{
				Name: advName + "/" + algoName, N: matrixN, Rounds: matrixRounds,
				Seed: 11, Workers: 3,
				NewAlgo: al.mk, Problem: al.pc, NewAdv: mkAdv,
				Crashpoints: crashpoints,
			}
			t.Run(s.Name, func(t *testing.T) {
				ref, err := RunReference(s)
				if err != nil {
					t.Fatal(err)
				}
				if len(ref.Records) != matrixRounds {
					t.Fatalf("reference recorded %d rounds, want %d", len(ref.Records), matrixRounds)
				}
				for _, k := range crashpoints {
					for _, workers := range []int{1, 4} {
						t.Run(fmt.Sprintf("k=%d/w=%d", k, workers), func(t *testing.T) {
							if err := VerifyResume(s, ref, k, workers); err != nil {
								t.Fatal(err)
							}
						})
						// The same crash, surviving only the incremental
						// chain prefix ending at k: base record at the
						// first crashpoint, one delta per later one.
						t.Run(fmt.Sprintf("chain/k=%d/w=%d", k, workers), func(t *testing.T) {
							if err := VerifyResumeChain(s, ref, k, workers); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			})
		}
	}
}

// TestCrashResumeInput covers per-node inputs once — the plane's other
// engine configuration axis.
func TestCrashResumeInput(t *testing.T) {
	const n = 64
	// MIS checkpoints validate every value against the problem domain, so
	// the input vector sticks to {⊥, InMIS, Dominated}.
	input := make([]problems.Value, n)
	for i := range input {
		input[i] = problems.Value(i % 3)
	}
	s := Scenario{
		Name: "input", N: n, Rounds: 20, Seed: 29, Workers: 2, Input: input,
		NewAlgo: func(n int) *core.Concat { return mis.NewMIS(n) },
		Problem: problems.MIS(),
		NewAdv: func() adversary.Adversary {
			base := graph.GNP(n, 5.0/float64(n), prf.NewStream(31, 0, 0, prf.PurposeWorkload))
			return &adversary.Churn{Base: base, Add: 5, Del: 5, Seed: 37}
		},
		Crashpoints: []int{4, 13},
	}
	ref, err := RunReference(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range s.Crashpoints {
		for _, workers := range []int{1, 4} {
			if err := VerifyResume(s, ref, k, workers); err != nil {
				t.Fatal(err)
			}
			if err := VerifyResumeChain(s, ref, k, workers); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestFaultWriter pins the injector itself: pass-through below the
// limit, short write crossing it, hard failure beyond it.
func TestFaultWriter(t *testing.T) {
	var sink bytes.Buffer
	fw := &FaultWriter{W: &sink, Limit: 10}
	if n, err := fw.Write([]byte("0123456")); n != 7 || err != nil {
		t.Fatalf("write below limit: (%d, %v)", n, err)
	}
	if n, err := fw.Write([]byte("789abc")); n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write crossing limit: (%d, %v), want (3, ErrInjected)", n, err)
	}
	if n, err := fw.Write([]byte("x")); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("write past limit: (%d, %v), want (0, ErrInjected)", n, err)
	}
	if sink.String() != "0123456789" {
		t.Fatalf("sink holds %q, want the 10-byte prefix", sink.String())
	}
	if fw.Written() != 10 {
		t.Fatalf("Written() = %d, want 10", fw.Written())
	}
}

// TestCheckpointMidWriteCrash kills the checkpoint itself: the write
// fails partway at every sampled byte limit. WriteRecord must surface the
// error, the torn prefix must never restore, and the run that survived
// the failed snapshot must continue bit-identically to a run that never
// attempted one.
func TestCheckpointMidWriteCrash(t *testing.T) {
	const n = 64
	const rounds = 16
	const k = 7
	mkAdv := func() adversary.Adversary {
		base := graph.GNP(n, 5.0/float64(n), prf.NewStream(53, 0, 0, prf.PurposeWorkload))
		return &adversary.Churn{Base: base, Add: 6, Del: 6, Seed: 59}
	}
	run := func(crashLimits []int) []problems.Value {
		e := engine.New(engine.Config{N: n, Seed: 17, Workers: 2}, mkAdv(), mis.NewMIS(n))
		for r := 1; r <= rounds; r++ {
			e.Step()
			if r == k {
				for _, limit := range crashLimits {
					var sink bytes.Buffer
					fw := &FaultWriter{W: &sink, Limit: limit}
					if err := e.WriteRecord(fw, true, nil); !errors.Is(err, ErrInjected) {
						t.Fatalf("limit %d: WriteRecord returned %v, want ErrInjected", limit, err)
					}
					torn := sink.Bytes()
					e2 := engine.New(engine.Config{N: n, Seed: 17, Workers: 2}, mkAdv(), mis.NewMIS(n))
					if err := e2.ReadChain(bytes.NewReader(torn), nil, nil); err == nil {
						t.Fatalf("limit %d: restoring the %d-byte torn prefix succeeded", limit, len(torn))
					}
				}
			}
		}
		return slices.Clone(e.Outputs())
	}

	// Size a healthy checkpoint to pick limits tearing the header, the
	// node states and the final CRC trailer.
	var whole bytes.Buffer
	{
		e := engine.New(engine.Config{N: n, Seed: 17, Workers: 2}, mkAdv(), mis.NewMIS(n))
		e.Run(k)
		if err := e.WriteRecord(&whole, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	size := whole.Len()
	limits := []int{0, 3, size / 4, size / 2, size - 1}

	clean := run(nil)
	crashed := run(limits)
	if !slices.Equal(clean, crashed) {
		t.Fatal("failed checkpoint attempts perturbed the run")
	}
}

// TestVerifyResumeDetectsDivergence makes sure the harness itself can
// fail: resuming against a reference from a different seed must report a
// divergence, not silently pass.
func TestVerifyResumeDetectsDivergence(t *testing.T) {
	mk := func(seed uint64) Scenario {
		return Scenario{
			Name: "diverge", N: 48, Rounds: 12, Seed: seed, Workers: 1,
			NewAlgo: func(n int) *core.Concat { return mis.NewMIS(n) },
			Problem: problems.MIS(),
			NewAdv: func() adversary.Adversary {
				base := graph.GNP(48, 5.0/48.0, prf.NewStream(61, 0, 0, prf.PurposeWorkload))
				return &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 67}
			},
			Crashpoints: []int{5},
		}
	}
	refA, err := RunReference(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	refB, err := RunReference(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	// Splice B's checkpoint under A's records: the resumed run plays
	// seed-2 state against seed-1 history.
	refA.Checkpoints[5] = refB.Checkpoints[5]
	if err := VerifyResume(mk(2), refA, 5, 1); err == nil {
		t.Fatal("resume against a mismatched reference passed")
	}
}
