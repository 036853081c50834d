package core_test

import (
	"bytes"
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// TestCombinerChainResume resumes Concat and Chain runs from chains
// whose records were taken while the pipelines fill and after they are
// full, under staggered wake-ups, so the restored pipelines pass the
// slot-shape checks of every fill level. The resumed rounds must match
// the uninterrupted run's outputs.
func TestCombinerChainResume(t *testing.T) {
	const n, rounds = 64, 30
	dyn := func(window int) core.DynamicAlgorithm { return &coloring.DColorFactory{N: n, Window: window} }
	s := &coloring.SColorFactory{N: n}
	cases := []struct {
		name string
		algo func() engine.Algorithm
	}{
		{"concat", func() engine.Algorithm { return core.NewConcat(dyn(9), s, n) }},
		{"chain-outer-wider", func() engine.Algorithm { return core.NewChain(dyn(9), dyn(5), s, n) }},
		{"chain-mid-wider", func() engine.Algorithm { return core.NewChain(dyn(6), dyn(8), s, n) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			newRun := func() *engine.Engine {
				base := graph.GNP(n, 8.0/n, prf.NewStream(5, 0, 0, prf.PurposeWorkload))
				adv := &adversary.Wakeup{
					Inner:    &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 6},
					Schedule: adversary.StaggeredSchedule(n, 4),
				}
				return engine.New(engine.Config{N: n, Seed: 7, Workers: 1}, adv, tc.algo())
			}
			ref := newRun()
			var chain bytes.Buffer
			var want [][]problems.Value
			for r := 1; r <= rounds; r++ {
				ref.Step()
				switch {
				case r == 4:
					if err := ref.WriteRecord(&chain, true, nil); err != nil {
						t.Fatal(err)
					}
				case r == 7 || r == 15:
					if err := ref.WriteRecord(&chain, false, nil); err != nil {
						t.Fatal(err)
					}
				case r > 15:
					want = append(want, slices.Clone(ref.Outputs()))
				}
			}
			e := newRun()
			if err := e.ReadChain(bytes.NewReader(chain.Bytes()), nil, nil); err != nil {
				t.Fatalf("resume: %v", err)
			}
			for i, w := range want {
				e.Step()
				if !slices.Equal(e.Outputs(), w) {
					t.Fatalf("round %d: resumed outputs differ", 16+i)
				}
			}
		})
	}
}
