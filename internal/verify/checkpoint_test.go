package verify

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// TestTDynamicCheckpointRoundTrip composes engine and checker state in
// one checkpoint record — exactly the workflow cmd/dynsim and the
// fault-injection harness use — and requires the resumed pair to emit
// bit-identical TDynamicReports and Totals for the remaining rounds.
// The checker's violation trackers are rebuilt, not serialized, so this
// pins the rebuild-from-window equivalence.
func TestTDynamicCheckpointRoundTrip(t *testing.T) {
	const n = 256
	const rounds = 40
	mkAdv := func() adversary.Adversary {
		base := graph.GNP(n, 6.0/float64(n), prf.NewStream(31, 0, 0, prf.PurposeWorkload))
		return &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: 77}
	}
	for _, k := range []int{3, 17, rounds / 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			algo := mis.NewMIS(n)
			T1 := algo.T1
			cfg := engine.Config{N: n, Seed: 5, Workers: 2}

			// Reference: uninterrupted run, checkpoint composed at round k.
			e := engine.New(cfg, mkAdv(), algo)
			chk := NewTDynamic(problems.MIS(), T1, n)
			var refReports []TDynamicReport
			var ck []byte
			e.OnRound(func(info *engine.RoundInfo) {
				rep := chk.Feed(info.Delta())
				if info.Round > k {
					refReports = append(refReports, deepCopyReport(rep))
				}
			})
			for r := 1; r <= rounds; r++ {
				e.Step()
				if r == k {
					var buf bytes.Buffer
					if err := e.WriteRecord(&buf, true, chk); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					ck = buf.Bytes()
				}
			}

			// Resumed: fresh engine + checker restored from the stream,
			// with a different worker count.
			cfg.Workers = 4
			algo2 := mis.NewMIS(n)
			e2 := engine.New(cfg, mkAdv(), algo2)
			chk2 := NewTDynamic(problems.MIS(), T1, n)
			if err := e2.ReadChain(bytes.NewReader(ck), nil, chk2); err != nil {
				t.Fatalf("restore: %v", err)
			}
			var resReports []TDynamicReport
			e2.OnRound(func(info *engine.RoundInfo) {
				resReports = append(resReports, deepCopyReport(chk2.Feed(info.Delta())))
			})
			for e2.Round() < rounds {
				e2.Step()
			}

			if len(resReports) != len(refReports) {
				t.Fatalf("resumed %d reports, want %d", len(resReports), len(refReports))
			}
			for i := range refReports {
				if !reflect.DeepEqual(refReports[i], resReports[i]) {
					t.Fatalf("round %d: reports diverge\nref %+v\nres %+v",
						k+1+i, refReports[i], resReports[i])
				}
			}
			assertTotalsEqual(t, chk, chk2)
		})
	}
}

// TestTDynamicLoadStateRejects pins checker restore validation: geometry
// mismatches, a base over a used checker and torn streams error out.
func TestTDynamicLoadStateRejects(t *testing.T) {
	const n = 48
	algo := mis.NewMIS(n)
	e := engine.New(engine.Config{N: n, Seed: 2, Workers: 1}, &adversary.Churn{
		Base: graph.GNP(n, 5.0/float64(n), prf.NewStream(3, 0, 0, prf.PurposeWorkload)),
		Add:  3, Del: 3, Seed: 8,
	}, algo)
	chk := NewTDynamic(problems.MIS(), algo.T1, n)
	e.OnRound(func(info *engine.RoundInfo) { chk.Feed(info.Delta()) })
	e.Run(8)
	w := ckpt.NewWriter(nil)
	chk.SaveDelta(w, true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ck := w.Bytes()

	load := func(dst *TDynamic, b []byte) error {
		r := ckpt.NewReader(b)
		dst.LoadDelta(r, true)
		if err := r.Err(); err != nil {
			return err
		}
		return r.Close()
	}
	if err := load(NewTDynamic(problems.MIS(), algo.T1+1, n), ck); err == nil {
		t.Fatal("restore into different window size succeeded")
	}
	used := NewTDynamic(problems.MIS(), algo.T1, n)
	used.Feed(engine.RoundDelta{Round: 1})
	if err := load(used, ck); err == nil {
		t.Fatal("restore into used checker succeeded")
	}
	for cut := 0; cut < len(ck); cut += 19 {
		if err := load(NewTDynamic(problems.MIS(), algo.T1, n), ck[:cut]); err == nil {
			t.Fatalf("restore of %d-byte prefix succeeded", cut)
		}
	}
}

func deepCopyReport(r TDynamicReport) TDynamicReport {
	r.PackingViolations = append([]problems.Violation(nil), r.PackingViolations...)
	r.CoverViolations = append([]problems.Violation(nil), r.CoverViolations...)
	return r
}

func assertTotalsEqual(t *testing.T, a, b *TDynamic) {
	t.Helper()
	ar, ai, ap, ac, ab := a.Totals()
	br, bi, bp, bc, bb := b.Totals()
	if ar != br || ai != bi || ap != bp || ac != bc || ab != bb {
		t.Fatalf("totals diverge: (%d %d %d %d %d) vs (%d %d %d %d %d)",
			ar, ai, ap, ac, ab, br, bi, bp, bc, bb)
	}
}
