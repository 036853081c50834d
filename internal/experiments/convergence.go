package experiments

import (
	"sync/atomic"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/stats"
	"dynlocal/internal/verify"
)

// E01DColorConvergence reproduces Lemma 4.4 / Corollary 1.2's T = O(log n):
// rounds until DColor colors every node, for a sweep of n and adversaries,
// with a log₂ n fit of the static series.
func E01DColorConvergence(p Params) ConvergenceResult {
	return runConvergence(p, "dcolor",
		func(n int) engine.Algorithm { return coloring.NewDynamic(n) },
		coloring.DefaultColoringWindow,
		[]AdversaryKind{AdvStatic, AdvChurn, AdvMarkov})
}

// E06DMisConvergence reproduces Lemma 5.4 / Corollary 1.3's T = O(log n)
// for DMis.
func E06DMisConvergence(p Params) ConvergenceResult {
	return runConvergence(p, "dmis",
		func(n int) engine.Algorithm { return mis.NewDynamic(n) },
		mis.DefaultMISWindow,
		[]AdversaryKind{AdvStatic, AdvChurn, AdvMarkov})
}

// ConflictResolutionResult is the outcome of E2 (Corollary 1.2's
// guarantee: conflicts caused by newly inserted edges are resolved within
// T rounds, and never exist against intersection-graph neighbors).
type ConflictResolutionResult struct {
	N                  int
	Window             int
	Injected           int
	ResolutionRounds   stats.Summary // rounds from injection to distinct colors
	Unresolved         int           // conflicts still live at horizon (should be 0)
	StaleConflictRound int           // rounds with conflicts on G^∩T edges (must be 0)
}

// E02ConflictResolution injects edges between equal-colored nodes and
// measures how long the conflicts live.
func E02ConflictResolution(p Params) ConflictResolutionResult {
	n := 512
	if p.Quick {
		n = 256
	}
	seed := p.seed()
	base := graph.GNP(n, 8.0/float64(n), workloadStream(seed))
	combined := coloring.NewColoring(n)
	inj := &adversary.ConflictInjector{
		Inner:    adversary.Static{G: base},
		Rate:     2,
		MinRound: 2 * combined.T1, // let the pipeline warm up first
		Seed:     seed + 1,
	}
	e := engine.New(engine.Config{N: n, Seed: seed + 2}, inj, combined)
	res := ConflictResolutionResult{N: n, Window: combined.T1}

	resolved := make(map[graph.EdgeKey]int) // edge -> resolution round
	window := dyngraph.NewWindow(combined.T1, n)
	var durations []float64
	e.OnRound(func(info *engine.RoundInfo) {
		window.ObserveEdgeDelta(info.EdgeAdds, info.EdgeRemoves, info.Wake)
		// Track resolution of injected conflicts.
		for _, in := range inj.Injections {
			if _, done := resolved[in.Edge]; done {
				continue
			}
			u, v := in.Edge.Nodes()
			if info.Outputs[u] != info.Outputs[v] {
				resolved[in.Edge] = info.Round
				durations = append(durations, float64(info.Round-in.Round))
			}
		}
		// Stale conflicts: equal colors across an intersection edge.
		for _, ck := range verify.ConflictEdges(info.Graph(), info.Outputs) {
			u, v := ck.Nodes()
			if window.InIntersection(u, v) {
				res.StaleConflictRound++
			}
		}
	})
	e.Run(6 * combined.T1)
	res.Injected = len(inj.Injections)
	res.ResolutionRounds = stats.Summarize(durations)
	for _, in := range inj.Injections {
		if _, done := resolved[in.Edge]; !done && in.Round+combined.T1 < e.Round() {
			res.Unresolved++
		}
	}
	return res
}

// StabilityResult is the outcome of E3 (Theorem 1.1(2) / Corollaries'
// locally-static guarantee).
type StabilityResult struct {
	Problem            string
	N                  int
	Wait               int // T1+T2
	ProtectedNodes     int
	ProtectedChanges   int // output changes of protected nodes after Wait (must be 0)
	ProtectedBot       int // protected nodes still ⊥ at the end (must be 0)
	UnprotectedChanges int // contrast: churn does move the rest
}

// E03LocalStability freezes the α-ball of selected nodes under global
// churn and verifies their outputs pin down within T1+T2 rounds.
func E03LocalStability(p Params) []StabilityResult {
	n := 384
	if p.Quick {
		n = 192
	}
	seed := p.seed()
	var out []StabilityResult

	run := func(label string, combined *core.Concat) {
		base := graph.GNP(n, 6.0/float64(n), workloadStream(seed))
		protected := []graph.NodeID{graph.NodeID(n / 7), graph.NodeID(n / 2), graph.NodeID(n - 3)}
		adv := &adversary.LocalStatic{
			Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: seed + 1},
			Base:      base,
			Protected: protected,
			Alpha:     combined.Alpha(),
		}
		e := engine.New(engine.Config{N: n, Seed: seed + 2}, adv, combined)
		wait := combined.StabilityWait()
		res := StabilityResult{Problem: label, N: n, Wait: wait, ProtectedNodes: len(protected)}
		isProtected := make([]bool, n)
		for _, v := range protected {
			isProtected[v] = true
		}
		prev := make([]int64, n)
		e.OnRound(func(info *engine.RoundInfo) {
			for v := 0; v < n; v++ {
				cur := int64(info.Outputs[v])
				if info.Round > wait && cur != prev[v] {
					if isProtected[v] {
						res.ProtectedChanges++
					} else {
						res.UnprotectedChanges++
					}
				}
				prev[v] = cur
			}
		})
		e.Run(wait + 60)
		for _, v := range protected {
			if prev[v] == 0 {
				res.ProtectedBot++
			}
		}
		out = append(out, res)
	}

	run("coloring", coloring.NewColoring(n))
	run("mis", mis.NewMIS(n))
	return out
}

// ProgressResult is the outcome of E4 (Lemma 4.3 / 6.1): the empirical
// per-round coloring probability in rounds where the palette did not
// shrink by 1/4, against the 1/64 bound.
type ProgressResult struct {
	Algorithm     string
	SlowRounds    int     // node-rounds without a 1/4 palette shrink
	SlowColored   int     // of those, node got colored
	EmpiricalProb float64 // SlowColored / SlowRounds
	Bound         float64 // 1/64
}

// E04ColoringProgress instruments Basic (static graph) and DColor (churn)
// and measures the Lemma 4.3 progress guarantee.
func E04ColoringProgress(p Params) []ProgressResult {
	n := 512
	if p.Quick {
		n = 256
	}
	seed := p.seed()
	var results []ProgressResult

	measure := func(name string, probe *progressCounters, alg engine.Algorithm, adv adversary.Adversary) {
		e := engine.New(engine.Config{N: n, Seed: seed + 5}, adv, alg)
		e.Run(30)
		slow := int(probe.slow.Load())
		colored := int(probe.colored.Load())
		prob := 0.0
		if slow > 0 {
			prob = float64(colored) / float64(slow)
		}
		results = append(results, ProgressResult{
			Algorithm: name, SlowRounds: slow, SlowColored: colored,
			EmpiricalProb: prob, Bound: 1.0 / 64,
		})
	}

	baseStatic := graph.GNP(n, 12.0/float64(n), workloadStream(seed))
	probe1 := &progressCounters{}
	basic := &coloring.BasicFactory{N: n, Probe: probe1.observe}
	measure("basic/static", probe1, core.Single{Label: "basic", Factory: func(v graph.NodeID) core.NodeInstance {
		return basic.NewNode(v)
	}}, adversary.Static{G: baseStatic})

	probe2 := &progressCounters{}
	dcol := &coloring.DColorFactory{N: n, Probe: probe2.observe}
	measure("dcolor/churn", probe2, core.Single{Label: "dcolor", Factory: func(v graph.NodeID) core.NodeInstance {
		return dcol.NewNode(v)
	}}, &adversary.Churn{Base: baseStatic, Add: n / 32, Del: n / 32, Seed: seed + 3})

	return results
}

type progressCounters struct {
	slow    atomic.Int64
	colored atomic.Int64
}

func (c *progressCounters) observe(ev coloring.Event) {
	if !ev.WasUncolored || ev.PaletteBefore == 0 {
		return
	}
	if 4*ev.Removed >= ev.PaletteBefore {
		return // palette shrank by >= 1/4: the "fast" branch of the lemma
	}
	c.slow.Add(1)
	if ev.GotColored {
		c.colored.Add(1)
	}
}
