package baseline

import (
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

func workload(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func TestGreedyRepairMISConvergesOnStaticGraph(t *testing.T) {
	const n = 128
	g := graph.GNP(n, 6.0/n, workload(1))
	e := engine.New(engine.Config{N: n, Seed: 2}, adversary.Static{G: g}, GreedyRepairMIS{N: n})
	if _, ok := e.RunUntil(300, func(info *engine.RoundInfo) bool {
		for _, o := range info.Outputs {
			if o == problems.Bot {
				return false
			}
		}
		return true
	}); !ok {
		t.Fatal("greedy repair did not converge on static graph")
	}
	all := adversary.AllNodes(n)
	if bad := (problems.IndependentSet{}).CheckFull(g, e.Outputs(), all); len(bad) != 0 {
		t.Fatalf("independence violated: %v", bad[0])
	}
	if bad := (problems.DominatingSet{}).CheckFull(g, e.Outputs(), all); len(bad) != 0 {
		t.Fatalf("domination violated: %v", bad[0])
	}
}

func TestGreedyRepairMISRepairsSingleChange(t *testing.T) {
	// The baseline's home turf: one change, then quiet. It must repair.
	const n = 64
	g := graph.GNP(n, 6.0/n, workload(3))
	churnThenQuiet := adversaryPhase{quietAfter: 30, inner: &adversary.Churn{Base: g, Add: 1, Del: 1, Seed: 4}}
	e := engine.New(engine.Config{N: n, Seed: 5}, &churnThenQuiet, GreedyRepairMIS{N: n})
	var lastG *graph.Graph
	//dynlint:ignore loancheck only the final round's graph is read, after Run stops playing rounds, so its pooled arena is never recycled
	e.OnRound(func(info *engine.RoundInfo) { lastG = info.Graph() })
	e.Run(90)
	final := e.Outputs()
	all := adversary.AllNodes(n)
	if bad := (problems.IndependentSet{}).CheckFull(lastG, final, all); len(bad) != 0 {
		t.Fatalf("independence not repaired: %v", bad[0])
	}
	if bad := (problems.DominatingSet{}).CheckFull(lastG, final, all); len(bad) != 0 {
		t.Fatalf("domination not repaired: %v", bad[0])
	}
}

func TestGreedyRepairColoringConvergesOnStaticGraph(t *testing.T) {
	const n = 128
	g := graph.GNP(n, 6.0/n, workload(7))
	e := engine.New(engine.Config{N: n, Seed: 8}, adversary.Static{G: g}, GreedyRepairColoring{N: n})
	e.Run(60)
	out := e.Outputs()
	all := adversary.AllNodes(n)
	if bad := (problems.ProperColoring{}).CheckFull(g, out, all); len(bad) != 0 {
		t.Fatalf("coloring conflict: %v", bad[0])
	}
	if bad := (problems.DegreeRange{}).CheckFull(g, out, all); len(bad) != 0 {
		t.Fatalf("range violation: %v", bad[0])
	}
}

func TestRestartMISIsTDynamicButUnstable(t *testing.T) {
	// The Section 1.1 strawman: valid T-dynamic output every round, but
	// flickering on a STATIC graph, in contrast to the full combiner.
	const n = 96
	g := graph.GNP(n, 6.0/n, workload(11))
	restart := NewRestartMIS(n, &mis.DMisFactory{N: n})
	e := engine.New(engine.Config{N: n, Seed: 12}, adversary.Static{G: g}, restart)
	chk := verify.NewTDynamic(problems.MIS(), restart.T1, n)
	stab := verify.NewStability(n, 2, restart.StabilityWait())
	invalid := 0
	e.OnRound(func(info *engine.RoundInfo) {
		if rep := chk.Feed(info.Delta()); !rep.Valid() {
			invalid++
		}
		stab.Observe(info.Graph(), info.Wake, info.Outputs)
	})
	e.Run(3 * restart.T1)
	if invalid != 0 {
		t.Fatalf("restart baseline violated T-dynamic condition %d times", invalid)
	}
	// On a static graph, the full combiner's output churn is (near) zero
	// after stabilization; the restart baseline keeps flickering.
	if stab.Changes() == 0 {
		t.Fatal("restart baseline did not flicker on a static graph — baseline broken")
	}

	combined := mis.NewMIS(n)
	e2 := engine.New(engine.Config{N: n, Seed: 12}, adversary.Static{G: g}, combined)
	stab2 := verify.NewStability(n, 2, combined.StabilityWait())
	e2.OnRound(func(info *engine.RoundInfo) {
		stab2.Observe(info.Graph(), info.Wake, info.Outputs)
	})
	e2.Run(3 * restart.T1)
	if len(stab2.Violations()) != 0 {
		t.Fatalf("combiner unstable on static graph: %v", stab2.Violations()[0])
	}
	if stab2.Changes() >= stab.Changes() {
		t.Fatalf("combiner churn %d not below restart churn %d", stab2.Changes(), stab.Changes())
	}
}

func TestGreedyRepairViolatesUnderConstantChurn(t *testing.T) {
	// The paper's motivation: under constant churn the recovery-period
	// baseline keeps violating the current-graph MIS conditions in a
	// non-vanishing fraction of rounds.
	const n = 128
	base := graph.GNP(n, 6.0/n, workload(13))
	adv := &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: 14}
	e := engine.New(engine.Config{N: n, Seed: 15}, adv, GreedyRepairMIS{N: n})
	violRounds := 0
	const rounds = 120
	e.OnRound(func(info *engine.RoundInfo) {
		if info.Round <= 20 {
			return // allow initial convergence
		}
		all := adversary.AllNodes(n)
		bad := (problems.IndependentSet{}).CheckFull(info.Graph(), info.Outputs, all)
		bad = append(bad, (problems.DominatingSet{}).CheckFull(info.Graph(), info.Outputs, all)...)
		if len(bad) > 0 {
			violRounds++
		}
	})
	e.Run(rounds)
	if violRounds == 0 {
		t.Fatal("greedy repair showed no violations under constant churn — experiment E9 premise broken")
	}
}

// adversaryPhase plays the inner adversary until quietAfter, then repeats
// the last topology forever. The quiet phase is an empty diff — "nothing
// changed".
type adversaryPhase struct {
	inner      adversary.Adversary
	quietAfter int
}

func (a *adversaryPhase) Step(v adversary.View) adversary.Step {
	if v.Round() <= a.quietAfter {
		return a.inner.Step(v)
	}
	return adversary.Step{}
}
