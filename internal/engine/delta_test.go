package engine

import (
	"fmt"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// The round-delta plane contract: after every Step, Changed lists exactly
// the nodes whose output differs from the previous round's snapshot, and
// EdgeAdds/EdgeRemoves exactly the edge diff of Graph against the
// previous round's graph — all sorted ascending without duplicates, for
// every worker count. These tests pin both planes against brute-force
// diffs of copied snapshots/edge lists across the serial and sharded
// paths, under full wake-up, staggered wake-up and churn, over plain and
// wrapper adversaries.

func bruteDiff(prev, cur []problems.Value) []graph.NodeID {
	var d []graph.NodeID
	for v := range cur {
		if cur[v] != prev[v] {
			d = append(d, graph.NodeID(v))
		}
	}
	return d
}

func TestChangedFeedMatchesBruteDiff(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		workers int
	}{
		{"serial-small", serialThreshold / 4, 1},
		{"sharded-blocked-small", serialThreshold / 4, 4}, // n below threshold: serial path
		{"serial-large", serialThreshold * 2, 1},
		{"sharded-large", serialThreshold * 2, 4},
	}
	for _, tc := range cases {
		mkAdvs := map[string]func() adversary.Adversary{
			"churn": churnAdv(tc.n),
			"staggered-churn": func() adversary.Adversary {
				return &adversary.Wakeup{
					Inner:    churnAdv(tc.n)(),
					Schedule: adversary.StaggeredSchedule(tc.n, tc.n/8+1),
				}
			},
		}
		for name, mk := range mkAdvs {
			t.Run(fmt.Sprintf("%s/%s", tc.name, name), func(t *testing.T) {
				e := New(Config{N: tc.n, Seed: 42, Workers: tc.workers}, mk(), degreeAlgo{})
				prev := make([]problems.Value, tc.n)
				e.OnRound(func(info *RoundInfo) {
					want := bruteDiff(prev, info.Outputs)
					if len(want) != len(info.Changed) {
						t.Fatalf("round %d: %d changed nodes, want %d",
							info.Round, len(info.Changed), len(want))
					}
					for i := range want {
						if info.Changed[i] != want[i] {
							t.Fatalf("round %d: Changed[%d] = %d, want %d",
								info.Round, i, info.Changed[i], want[i])
						}
					}
					for i := 1; i < len(info.Changed); i++ {
						if info.Changed[i] <= info.Changed[i-1] {
							t.Fatalf("round %d: Changed not strictly ascending: %v",
								info.Round, info.Changed)
						}
					}
					copy(prev, info.Outputs)
				})
				e.Run(16)
			})
		}
	}
}

// TestTopologyDeltaFeedMatchesBruteDiff pins the topology side of the
// round-delta plane: RoundInfo.EdgeAdds/EdgeRemoves must be exactly the
// sorted edge diff of consecutive round graphs, and the graph itself must
// equal the fold of the diffs. Covers the randomized adversaries (churn,
// edge-markov), a fixed graph (static) and the three wrappers
// (local-static, wakeup, conflict injector).
func TestTopologyDeltaFeedMatchesBruteDiff(t *testing.T) {
	const n = 96
	base := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 6.0/float64(n), prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	advs := map[string]func() adversary.Adversary{
		"churn": func() adversary.Adversary {
			return &adversary.Churn{Base: base(1), Add: 5, Del: 5, Seed: 2}
		},
		"edge-markov": func() adversary.Adversary {
			return &adversary.EdgeMarkov{Footprint: base(2), POn: 0.3, POff: 0.3, Seed: 3}
		},
		"local-static": func() adversary.Adversary {
			b := base(3)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: b, Add: 6, Del: 6, Seed: 4},
				Base:      b,
				Protected: []graph.NodeID{7, n / 2},
				Alpha:     2,
			}
		},
		"staggered-churn": func() adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: base(4), Add: 5, Del: 5, Seed: 5},
				Schedule: adversary.StaggeredSchedule(n, n/6+1),
			}
		},
		"static": func() adversary.Adversary {
			return adversary.Static{G: base(5)}
		},
		"conflict-injector": func() adversary.Adversary {
			return &adversary.ConflictInjector{
				Inner:    &adversary.Churn{Base: base(6), Add: 4, Del: 4, Seed: 7},
				Rate:     3,
				MinRound: 5,
				Seed:     8,
			}
		},
	}
	for name, mk := range advs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				e := New(Config{N: n, Seed: 42, Workers: workers}, mk(), degreeAlgo{})
				m := graphtest.NewDiffModel(n)
				var prevG *graph.Graph = graph.Empty(n)
				e.OnRound(func(info *RoundInfo) {
					wantAdds, wantRems := graph.DiffSortedKeys(
						prevG.EdgeKeys(), info.Graph().EdgeKeys(), nil, nil)
					if fmt.Sprint(wantAdds) != fmt.Sprint(info.EdgeAdds) {
						t.Fatalf("round %d adds: got %v want %v", info.Round, info.EdgeAdds, wantAdds)
					}
					if fmt.Sprint(wantRems) != fmt.Sprint(info.EdgeRemoves) {
						t.Fatalf("round %d removes: got %v want %v", info.Round, info.EdgeRemoves, wantRems)
					}
					m.Step(t, info.EdgeAdds, info.EdgeRemoves)
					if m.Len() != info.Graph().M() {
						t.Fatalf("round %d: folded %d edges, graph has %d",
							info.Round, m.Len(), info.Graph().M())
					}
					//dynlint:ignore loancheck prevG is read next round only, within the pooled graph's two-round lifetime
					prevG = info.Graph()
				})
				e.Run(20)
			})
		}
	}
}

// TestChangedFeedFirstRoundDiffsAgainstBot pins the round-1 baseline: a
// node whose first output is ⊥ is not reported as changed, one with a
// non-⊥ first output is.
func TestChangedFeedFirstRoundDiffsAgainstBot(t *testing.T) {
	const n = 6
	// degreeAlgo outputs deg+1 != Bot for every awake node: all awake
	// nodes change in round 1.
	e := New(Config{N: n, Seed: 1}, adversary.Static{G: graph.Cycle(n)}, degreeAlgo{})
	info := e.Step()
	if len(info.Changed) != n {
		t.Fatalf("round 1 changed = %v, want all %d nodes", info.Changed, n)
	}
	// A second identical round changes nothing.
	info = e.Step()
	if len(info.Changed) != 0 {
		t.Fatalf("static round 2 changed = %v, want none", info.Changed)
	}
}
