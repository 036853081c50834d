package dynlocal

import (
	"testing"
)

// TestQuickstartMIS is the doc.go quick-start, as a test: the combined
// MIS algorithm under churn must produce a valid T-dynamic solution in
// every round.
func TestQuickstartMIS(t *testing.T) {
	const n = 256
	algo := NewMIS(n)
	adv := NewChurn(GNP(n, 8.0/float64(n), 1), 8, 8, 2)
	eng := NewEngine(EngineConfig{N: n, Seed: 42}, adv, algo)
	check := NewTDynamicChecker(MISProblem(), algo.T1, n)
	invalid := 0
	eng.OnRound(func(info *RoundInfo) {
		if rep := check.Feed(info.Delta()); !rep.Valid() {
			invalid++
		}
	})
	eng.Run(2 * algo.T1)
	if invalid != 0 {
		t.Fatalf("%d invalid rounds", invalid)
	}
}

func TestQuickstartColoring(t *testing.T) {
	const n = 256
	algo := NewColoring(n)
	adv := NewEdgeMarkov(GNP(n, 10.0/float64(n), 3), 0.05, 0.05, 4)
	eng := NewEngine(EngineConfig{N: n, Seed: 7}, adv, algo)
	check := NewTDynamicChecker(ColoringProblem(), algo.T1, n)
	invalid := 0
	eng.OnRound(func(info *RoundInfo) {
		if rep := check.Feed(info.Delta()); !rep.Valid() {
			invalid++
		}
	})
	eng.Run(2 * algo.T1)
	if invalid != 0 {
		t.Fatalf("%d invalid rounds", invalid)
	}
}

func TestFacadeConstructorsExist(t *testing.T) {
	const n = 32
	for _, algo := range []Algorithm{
		NewDMis(n), NewSMis(n), NewLuby(n),
		NewDColor(n), NewSColor(n), NewBasicColoring(n),
		NewGreedyRepairMIS(n), NewGreedyRepairColoring(n),
		NewMIS(n), NewColoring(n), NewRestartMIS(n),
		NewChainedMIS(n, 8),
	} {
		if algo.Name() == "" {
			t.Fatal("unnamed algorithm")
		}
		eng := NewEngine(EngineConfig{N: n, Seed: 1}, StaticAdversary{G: Cycle(n)}, algo)
		eng.Run(3)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if g := GNP(50, 0.1, 1); g.N() != 50 {
		t.Fatal("GNP wrong")
	}
	if g := RandomGeometric(50, 0.2, 2); g.N() != 50 {
		t.Fatal("geometric wrong")
	}
	if g := Grid(3, 5); g.N() != 15 {
		t.Fatal("grid wrong")
	}
	if g := Complete(5); g.M() != 10 {
		t.Fatal("complete wrong")
	}
	pts := RandomPoints(10, 3)
	if len(pts) != 10 {
		t.Fatal("points wrong")
	}
	if g := Geometric(pts, 2.0); g.M() != 45 {
		t.Fatal("full geometric wrong")
	}
	if len(AllNodes(7)) != 7 {
		t.Fatal("AllNodes wrong")
	}
	if len(StaggeredSchedule(10, 3)) != 10 {
		t.Fatal("schedule wrong")
	}
	if s := UniformRandomSchedule(10, 5, 1); len(s) != 10 {
		t.Fatal("random schedule wrong")
	}
}

func TestFacadeWindows(t *testing.T) {
	w := NewSlidingWindow(3, 8)
	w.ObserveEdgeDelta(Cycle(8).EdgeKeys(), nil, AllNodes(8))
	if w.Round() != 1 {
		t.Fatal("window observe failed")
	}
	fw := NewFracWindow(4, 8)
	fw.ObserveEdgeDelta(Cycle(8).EdgeKeys(), nil, AllNodes(8))
	if fw.Graph(0.25).M() != 8 {
		t.Fatal("frac window wrong")
	}
}
