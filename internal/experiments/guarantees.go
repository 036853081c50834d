package experiments

import (
	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/baseline"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/stats"
	"dynlocal/internal/verify"
)

// DecayResult is the outcome of E5 (Lemma 5.2): the measured 2-round
// decay factor of the undecided-undecided edge count under oblivious
// adversaries, against the 2/3 bound.
type DecayResult struct {
	Adversary AdversaryKind
	N         int
	Samples   int
	MeanDecay float64
	P90Decay  float64
	Bound     float64
}

// E05MISEdgeDecay measures E[|E(H_{r+2})|]/|E(H_r)| for DMis.
func E05MISEdgeDecay(p Params) []DecayResult {
	n := 1024
	if p.Quick {
		n = 512
	}
	seed := p.seed()
	var out []DecayResult
	for _, kind := range []AdversaryKind{AdvStatic, AdvChurn, AdvMarkov} {
		var ratios []float64
		for trial := 0; trial < p.trials(); trial++ {
			tseed := seed + uint64(trial)*911
			base := graph.GNP(n, 16.0/float64(n), workloadStream(tseed))
			adv := makeAdversary(kind, base, tseed+1)
			e := engine.New(engine.Config{N: n, Seed: tseed + 2}, adv, mis.NewDynamic(n))
			// H lives on DMis's communication graph: the intersection of
			// all graphs since start. Lemma 5.2 bounds E[H_{r+2}] against
			// H_r for every r, so overlapping 2-round pairs are valid
			// samples; pairs with small H_r are skipped (the ratio is
			// meaningless near exhaustion).
			var inter *graph.Graph
			var hs []int
			e.OnRound(func(info *engine.RoundInfo) {
				if inter == nil {
					// Clone: the round-1 graph is pooled and inter is
					// read on every later round.
					inter = info.Graph().Clone()
				} else {
					inter = graph.Intersection(inter, info.Graph())
				}
				hs = append(hs, undecidedEdgeCount(inter, info.Outputs))
			})
			e.Run(24)
			for r := 0; r+2 < len(hs); r++ {
				if hs[r] >= 30 {
					ratios = append(ratios, float64(hs[r+2])/float64(hs[r]))
				}
			}
		}
		s := stats.Summarize(ratios)
		out = append(out, DecayResult{
			Adversary: kind, N: n, Samples: s.Count,
			MeanDecay: s.Mean, P90Decay: s.P90, Bound: mis.ExpectedDecayBound,
		})
	}
	return out
}

func undecidedEdgeCount(g *graph.Graph, out []problems.Value) int {
	count := 0
	g.EachEdge(func(u, v graph.NodeID) {
		if out[u] == problems.Bot && out[v] == problems.Bot {
			count++
		}
	})
	return count
}

// StaticBallResult is the outcome of E7 (Lemma 5.6): rounds until a node
// with a static 2-neighborhood is decided by SMis, under churn elsewhere,
// for a sweep of n.
type StaticBallResult struct {
	N              int
	DecideRounds   stats.Summary // per protected node
	ChangesAfter   int           // output changes after decision (must be 0)
	UndecidedAtEnd int           // protected nodes never decided (should be 0)
}

// E07SMisStaticBall measures SMis's locally-static behavior.
func E07SMisStaticBall(p Params) []StaticBallResult {
	seed := p.seed()
	var out []StaticBallResult
	for _, n := range p.nSweep() {
		var decideRounds []float64
		changesAfter := 0
		undecided := 0
		for trial := 0; trial < p.trials(); trial++ {
			tseed := seed + uint64(trial)*313 + uint64(n)
			base := graph.GNP(n, 6.0/float64(n), workloadStream(tseed))
			protected := []graph.NodeID{graph.NodeID(n / 5), graph.NodeID(n / 2), graph.NodeID(4 * n / 5)}
			adv := &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: tseed + 1},
				Base:      base,
				Protected: protected,
				Alpha:     2,
			}
			e := engine.New(engine.Config{N: n, Seed: tseed + 2}, adv, mis.NewNetworkStatic(n))
			decidedAt := make(map[graph.NodeID]int)
			prevOut := make([]problems.Value, len(protected))
			changed := make([]bool, len(protected))
			e.OnRound(func(info *engine.RoundInfo) {
				for i, v := range protected {
					if _, done := decidedAt[v]; !done && info.Outputs[v] != problems.Bot {
						decidedAt[v] = info.Round
					}
					// Lemma 5.6: the output must never change while the
					// 2-ball stays static (it is frozen for the whole run).
					if prevOut[i] != problems.Bot && info.Outputs[v] != prevOut[i] {
						changed[i] = true
					}
					prevOut[i] = info.Outputs[v]
				}
			})
			e.Run(4 * mis.DefaultMISWindow(n))
			for i, v := range protected {
				if r, done := decidedAt[v]; done {
					decideRounds = append(decideRounds, float64(r))
				} else {
					undecided++
				}
				if changed[i] {
					changesAfter++
				}
			}
		}
		out = append(out, StaticBallResult{
			N: n, DecideRounds: stats.Summarize(decideRounds),
			ChangesAfter: changesAfter, UndecidedAtEnd: undecided,
		})
	}
	return out
}

// EndToEndResult is one cell of E8 (Theorem 1.1 / Corollaries 1.2+1.3).
type EndToEndResult struct {
	Problem       string
	Adversary     AdversaryKind
	N             int
	Window        int
	Rounds        int
	InvalidRounds int // must be 0
	Violations    int
}

// E08ConcatEndToEnd verifies the combined algorithms produce T-dynamic
// solutions in every round across the adversary suite.
func E08ConcatEndToEnd(p Params) []EndToEndResult {
	n := p.size(256, 128)
	seed := p.seed()
	var out []EndToEndResult
	kinds := []AdversaryKind{AdvStatic, AdvChurn, AdvMarkov, AdvFlip}
	for _, prob := range []string{"coloring", "mis"} {
		for _, kind := range kinds {
			base := graph.GNP(n, 6.0/float64(n), workloadStream(seed+uint64(len(out))))
			var combined *core.Concat
			var pc problems.PC
			if prob == "coloring" {
				combined = coloring.NewColoring(n)
				pc = problems.Coloring()
			} else {
				combined = mis.NewMIS(n)
				pc = problems.MIS()
			}
			adv := makeAdversary(kind, base, seed+77+uint64(len(out)))
			e := engine.New(engine.Config{N: n, Seed: seed + 99}, adv, combined)
			chk := verify.NewTDynamic(pc, combined.T1, n)
			res := EndToEndResult{Problem: prob, Adversary: kind, N: n, Window: combined.T1}
			e.OnRound(func(info *engine.RoundInfo) {
				rep := chk.Feed(info.Delta())
				if !rep.Valid() {
					res.InvalidRounds++
					res.Violations += len(rep.PackingViolations) + len(rep.CoverViolations) + rep.BotCore
				}
			})
			res.Rounds = 3 * combined.T1
			e.Run(res.Rounds)
			out = append(out, res)
		}
	}
	return out
}

// BaselineResult is one cell of E9: validity and stability of the
// combined algorithm vs the recovery baseline vs the restart strawman,
// under a churn-rate sweep.
type BaselineResult struct {
	Algorithm     string
	ChurnPerRound int
	InvalidFrac   float64 // fraction of (post-warmup) rounds violating T-dynamic MIS
	OutputChurn   float64 // output changes per node per round after warm-up
}

// E09Baselines sweeps churn intensity for the three MIS maintainers.
func E09Baselines(p Params) []BaselineResult {
	n := 256
	if p.Quick {
		n = 128
	}
	seed := p.seed()
	churns := []int{0, 2, 4, 8, 16, 32}
	if p.Quick {
		churns = []int{0, 4, 16}
	}
	var out []BaselineResult
	window := mis.DefaultMISWindow(n)
	rounds := 3 * window

	type algoCase struct {
		name string
		mk   func() engine.Algorithm
	}
	cases := []algoCase{
		{"combined", func() engine.Algorithm { return mis.NewMIS(n) }},
		{"greedy-repair", func() engine.Algorithm { return baseline.GreedyRepairMIS{N: n} }},
		{"restart", func() engine.Algorithm { return baseline.NewRestartMIS(n, &mis.DMisFactory{N: n}) }},
	}
	for _, c := range churns {
		for _, ac := range cases {
			base := graph.GNP(n, 6.0/float64(n), workloadStream(seed+uint64(c)))
			var adv adversary.Adversary
			if c == 0 {
				adv = adversary.Static{G: base}
			} else {
				adv = &adversary.Churn{Base: base, Add: c, Del: c, Seed: seed + uint64(c) + 1}
			}
			e := engine.New(engine.Config{N: n, Seed: seed + 7}, adv, ac.mk())
			chk := verify.NewTDynamic(problems.MIS(), window, n)
			warmup := 2 * window
			invalid, counted := 0, 0
			changes := 0
			e.OnRound(func(info *engine.RoundInfo) {
				rep := chk.Feed(info.Delta())
				if info.Round > warmup {
					counted++
					if !rep.Valid() {
						invalid++
					}
					// The engine's round-delta feed is exactly the
					// round-over-round output diff.
					changes += len(info.Changed)
				}
			})
			e.Run(rounds)
			res := BaselineResult{Algorithm: ac.name, ChurnPerRound: c}
			if counted > 0 {
				res.InvalidFrac = float64(invalid) / float64(counted)
				res.OutputChurn = float64(changes) / float64(counted) / float64(n)
			}
			out = append(out, res)
		}
	}
	return out
}

// WindowSweepResult is one cell of E10: the effect of the window size T
// on validity (too small: the dynamic algorithm cannot finish; large
// enough: zero violations; larger: weaker guarantee but still valid).
type WindowSweepResult struct {
	Window        int
	DefaultWindow int
	InvalidFrac   float64
	BotCoreRounds int
}

// stormAdversary realizes the paper's window lower-bound argument
// (Section 1.1): it plays the empty graph for `clear` rounds — flushing
// every sliding window — and then a fixed graph for `hold` rounds. At the
// T-th round after a storm the window contains only the new graph, so a
// valid T-dynamic solution must be a from-scratch solution of the static
// problem computed in T rounds; any T below the static solving time must
// produce invalid rounds. The first hold round adds g's edges and the
// first clear round after a hold removes them.
type stormAdversary struct {
	g     *graph.Graph
	clear int
	hold  int
}

func (s stormAdversary) holding(r int) bool {
	return r >= 1 && (r-1)%(s.clear+s.hold) >= s.clear
}

func (s stormAdversary) Step(v adversary.View) adversary.Step {
	st := adversary.Step{}
	r := v.Round()
	if r == 1 {
		st.Wake = adversary.AllNodes(s.g.N())
	}
	switch now, before := s.holding(r), s.holding(r-1); {
	case now && !before:
		st.EdgeAdds = s.g.EdgeKeys()
	case !now && before:
		st.EdgeRemoves = s.g.EdgeKeys()
	}
	return st
}

// E10WindowSweep runs the combined coloring at several window sizes
// against the storm adversary.
func E10WindowSweep(p Params) []WindowSweepResult {
	n := 256
	if p.Quick {
		n = 128
	}
	seed := p.seed()
	def := coloring.DefaultColoringWindow(n)
	windows := []int{2, 4, def / 2, def, 2 * def}
	var out []WindowSweepResult
	for _, T := range windows {
		if T < 2 {
			T = 2
		}
		base := graph.GNP(n, 6.0/float64(n), workloadStream(seed+uint64(T)))
		d := &coloring.DColorFactory{N: n, Window: T}
		s := &coloring.SColorFactory{N: n}
		combined := core.NewConcat(d, s, n)
		adv := stormAdversary{g: base, clear: def, hold: 3 * def}
		e := engine.New(engine.Config{N: n, Seed: seed + 11}, adv, combined)
		chk := verify.NewTDynamic(problems.Coloring(), T, n)
		invalid, counted, botRounds := 0, 0, 0
		warmup := 2 * def
		e.OnRound(func(info *engine.RoundInfo) {
			rep := chk.Feed(info.Delta())
			if info.Round > warmup {
				counted++
				if !rep.Valid() {
					invalid++
				}
				if rep.BotCore > 0 {
					botRounds++
				}
			}
		})
		e.Run(warmup + 4*(def+3*def))
		res := WindowSweepResult{Window: T, DefaultWindow: def, BotCoreRounds: botRounds}
		if counted > 0 {
			res.InvalidFrac = float64(invalid) / float64(counted)
		}
		out = append(out, res)
	}
	return out
}

// DeltaWindowResult is one cell of E11 (Section 7.2 future work): the
// δ-fraction window interpolating between union and intersection.
type DeltaWindowResult struct {
	Delta     float64
	MeanEdges float64 // edges of G^{δ,T} averaged over rounds
	Conflicts int     // equal-color pairs across G^{δ,T} edges (coloring)
}

// E11DeltaWindows measures edge counts and conflicts of δ-windows under
// an edge-Markov adversary with the combined coloring output.
func E11DeltaWindows(p Params) []DeltaWindowResult {
	n := 256
	if p.Quick {
		n = 128
	}
	seed := p.seed()
	base := graph.GNP(n, 8.0/float64(n), workloadStream(seed))
	combined := coloring.NewColoring(n)
	T := combined.T1
	if T > 64 {
		T = 64
	}
	deltas := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	adv := &adversary.EdgeMarkov{Footprint: base, POn: 0.1, POff: 0.1, Seed: seed + 1}
	e := engine.New(engine.Config{N: n, Seed: seed + 2}, adv, combined)
	fw := dyngraph.NewFracWindow(T, n)
	edgeSums := make([]float64, len(deltas))
	conflicts := make([]int, len(deltas))
	rounds := 0
	warmup := 2 * combined.T1
	e.OnRound(func(info *engine.RoundInfo) {
		fw.ObserveEdgeDelta(info.EdgeAdds, info.EdgeRemoves, info.Wake)
		if info.Round <= warmup {
			return
		}
		rounds++
		for i, d := range deltas {
			g := fw.Graph(d)
			edgeSums[i] += float64(g.M())
			g.EachEdge(func(u, v graph.NodeID) {
				if info.Outputs[u] != problems.Bot && info.Outputs[u] == info.Outputs[v] {
					conflicts[i]++
				}
			})
		}
	})
	e.Run(warmup + 40)
	var out []DeltaWindowResult
	for i, d := range deltas {
		res := DeltaWindowResult{Delta: d, Conflicts: conflicts[i]}
		if rounds > 0 {
			res.MeanEdges = edgeSums[i] / float64(rounds)
		}
		out = append(out, res)
	}
	return out
}

// MessageBitsResult is one cell of E12: measured message sizes per
// algorithm against the poly log n remark of Section 2.
type MessageBitsResult struct {
	Algorithm  string
	N          int
	BitsPerMsg float64
	Log2N      float64
}

// E12MessageBits measures mean encoded bits per message over an n sweep.
func E12MessageBits(p Params) []MessageBitsResult {
	seed := p.seed()
	var out []MessageBitsResult
	for _, n := range p.nSweep() {
		base := graph.GNP(n, 8.0/float64(n), workloadStream(seed+uint64(n)))
		logBits := 2*ceilLog2n(n) + 4
		for _, algoCase := range []struct {
			name string
			mk   engine.Algorithm
		}{
			{"coloring", coloring.NewColoring(n)},
			{"mis", mis.NewMIS(n)},
			// The explicit poly log n regime of the Section 2 remark:
			// DMis random words truncated to 2⌈log₂n⌉+4 bits.
			{"mis-logbits", core.NewConcat(
				&mis.DMisFactory{N: n, AlphaBits: logBits},
				&mis.SMisFactory{N: n}, n)},
		} {
			adv := &adversary.Churn{Base: base, Add: n / 32, Del: n / 32, Seed: seed + 5}
			e := engine.New(engine.Config{N: n, Seed: seed + 6}, adv, algoCase.mk)
			var bits, msgs int64
			e.OnRound(func(info *engine.RoundInfo) {
				bits += info.Bits
				msgs += int64(info.Messages)
			})
			e.Run(20)
			res := MessageBitsResult{Algorithm: algoCase.name, N: n, Log2N: log2(n)}
			if msgs > 0 {
				res.BitsPerMsg = float64(bits) / float64(msgs)
			}
			out = append(out, res)
		}
	}
	return out
}

func log2(n int) float64 {
	l := 0.0
	for x := 1; x < n; x *= 2 {
		l++
	}
	return l
}

func ceilLog2n(n int) int { return int(log2(n + 1)) }

// ClairvoyantResult is the outcome of E13 (remark after Lemma 5.2).
type ClairvoyantResult struct {
	N                    int
	ObliviousDominated   int // dominated nodes under the oblivious adversary
	ObliviousMISSize     int
	ObliviousRounds      int
	ClairvoyantDominated int // must be 0: every mark edge burned
	ClairvoyantMISSize   int // degenerates to n
	ClairvoyantRounds    int
	EdgesBurned          int
	BaseViolations       int // independence violations of the degenerate M w.r.t. the footprint
}

// E13Clairvoyant compares DMis under a 2-oblivious static adversary and
// under the seed-reading adaptive-offline adversary.
func E13Clairvoyant(p Params) ClairvoyantResult {
	n := 256
	if p.Quick {
		n = 128
	}
	seed := p.seed()
	g := graph.GNP(n, 10.0/float64(n), workloadStream(seed))
	res := ClairvoyantResult{N: n}

	e1 := engine.New(engine.Config{N: n, Seed: seed + 1}, adversary.Static{G: g}, mis.NewLuby(n))
	res.ObliviousRounds, _ = e1.RunUntil(1000, func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	})
	for _, out := range e1.Outputs() {
		switch out {
		case problems.Dominated:
			res.ObliviousDominated++
		case problems.InMIS:
			res.ObliviousMISSize++
		}
	}

	staller := &adversary.LubyStaller{Base: g, Seed: seed + 1, Purpose: prf.PurposeLubyAlpha}
	e2 := engine.New(engine.Config{N: n, Seed: seed + 1, OutputLag: 1}, staller, mis.NewDynamic(n))
	res.ClairvoyantRounds, _ = e2.RunUntil(1000, func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	})
	for _, out := range e2.Outputs() {
		switch out {
		case problems.Dominated:
			res.ClairvoyantDominated++
		case problems.InMIS:
			res.ClairvoyantMISSize++
		}
	}
	res.EdgesBurned = staller.Deleted
	res.BaseViolations = len((problems.IndependentSet{}).CheckFull(g, e2.Outputs(), adversary.AllNodes(n)))
	return res
}

// AsyncWakeupResult is one cell of E14.
type AsyncWakeupResult struct {
	Schedule      string
	N             int
	Rounds        int
	InvalidRounds int // must be 0
	FinalCore     int
}

// E14AsyncWakeup verifies the guarantees under staggered and random
// wake-up schedules for both problems.
func E14AsyncWakeup(p Params) []AsyncWakeupResult {
	n := 256
	if p.Quick {
		n = 128
	}
	seed := p.seed()
	var out []AsyncWakeupResult
	schedules := []struct {
		name  string
		sched []int
	}{
		{"staggered-8", adversary.StaggeredSchedule(n, 8)},
		{"uniform-40", adversary.UniformRandomSchedule(n, 40, seed+9)},
	}
	for _, sc := range schedules {
		for _, prob := range []string{"coloring", "mis"} {
			base := graph.GNP(n, 6.0/float64(n), workloadStream(seed+3))
			var combined *core.Concat
			var pc problems.PC
			if prob == "coloring" {
				combined = coloring.NewColoring(n)
				pc = problems.Coloring()
			} else {
				combined = mis.NewMIS(n)
				pc = problems.MIS()
			}
			adv := &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: seed + 4},
				Schedule: sc.sched,
			}
			e := engine.New(engine.Config{N: n, Seed: seed + 5}, adv, combined)
			chk := verify.NewTDynamic(pc, combined.T1, n)
			res := AsyncWakeupResult{Schedule: sc.name + "/" + prob, N: n}
			var lastCore int
			e.OnRound(func(info *engine.RoundInfo) {
				rep := chk.Feed(info.Delta())
				if !rep.Valid() {
					res.InvalidRounds++
				}
				lastCore = rep.CoreNodes
			})
			res.Rounds = n/8 + 3*combined.T1
			e.Run(res.Rounds)
			res.FinalCore = lastCore
			out = append(out, res)
		}
	}
	return out
}
