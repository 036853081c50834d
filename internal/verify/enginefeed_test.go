package verify_test

import (
	"reflect"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
	"dynlocal/internal/verify/verifytest"
)

// TestTDynamicEngineChangedFeedMatchesOracle closes the round-delta plane
// end to end: a real engine run (combined algorithms, real wake-ups and
// pooled buffers) feeds its full RoundInfo delta plane — EdgeAdds/
// EdgeRemoves + Changed — into the graph-free checker, while the
// materializing oracle re-derives everything from the round graphs and
// the full output snapshot; the per-round TDynamicReports must be
// bit-identical. Unlike TestTDynamicIncrementalMatchesOracle this
// exercises the engine's own diffs (per-worker fold, snapshot-ring
// baseline, wake-round ⊥ handling, patched/synthesized topology deltas
// over pooled graphs) rather than test-maintained ones. n is above the
// engine's serial threshold (512) and Workers is 4, so the sharded phase
// path and the per-worker changed-shard fold really run — and are raced
// in CI's -race job.
func TestTDynamicEngineChangedFeedMatchesOracle(t *testing.T) {
	const n = 640
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 6.0/float64(n), prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	schedules := []struct {
		name string
		mk   func(seed uint64) adversary.Adversary
	}{
		{"churn", func(seed uint64) adversary.Adversary {
			return &adversary.Churn{Base: mkBase(seed), Add: 6, Del: 6, Seed: seed + 1}
		}},
		{"edge-markov", func(seed uint64) adversary.Adversary {
			return &adversary.EdgeMarkov{Footprint: mkBase(seed), POn: 0.3, POff: 0.3, Seed: seed + 1}
		}},
		{"local-static", func(seed uint64) adversary.Adversary {
			base := mkBase(seed)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: seed + 1},
				Base:      base,
				Protected: []graph.NodeID{3, n / 2},
				Alpha:     2,
			}
		}},
		{"staggered-wake", func(seed uint64) adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: mkBase(seed), Add: 6, Del: 6, Seed: seed + 1},
				Schedule: adversary.StaggeredSchedule(n, 8),
			}
		}},
	}
	algos := []struct {
		name string
		pc   problems.PC
		mk   func() (engine.Algorithm, int)
	}{
		{"mis", problems.MIS(), func() (engine.Algorithm, int) {
			a := mis.NewMIS(n)
			return a, a.T1
		}},
		{"coloring", problems.Coloring(), func() (engine.Algorithm, int) {
			a := coloring.NewColoring(n)
			return a, a.T1
		}},
	}
	for si, sc := range schedules {
		for ai, ac := range algos {
			t.Run(sc.name+"/"+ac.name, func(t *testing.T) {
				seed := uint64(23 + 7*si + ai)
				algo, T1 := ac.mk()
				e := engine.New(engine.Config{N: n, Seed: seed + 99, Workers: 4}, sc.mk(seed), algo)
				dlt := verify.NewTDynamic(ac.pc, T1, n)
				orc := verifytest.NewOracle(ac.pc, T1, n)
				e.OnRound(func(info *engine.RoundInfo) {
					repDlt := dlt.Feed(info.Delta())
					repOrc := orc.Observe(info.Graph(), info.Wake, info.Outputs)
					if !reflect.DeepEqual(repDlt, repOrc) {
						t.Fatalf("round %d: reports diverge\ndelta-feed %+v\noracle     %+v",
							info.Round, repDlt, repOrc)
					}
				})
				// Enough rounds for the slowest wake schedule (n/8 staggered
				// rounds) plus a full window fill and a post-core margin.
				e.Run(2*T1 + n/8 + 8)
			})
		}
	}
}
