package mis

import (
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
	"dynlocal/internal/verify/verifytest"
)

func workload(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func allDecided(out []problems.Value) bool {
	for _, v := range out {
		if v == problems.Bot {
			return false
		}
	}
	return true
}

func checkMIS(t *testing.T, g *graph.Graph, out []problems.Value) {
	t.Helper()
	all := adversary.AllNodes(g.N())
	if bad := (problems.IndependentSet{}).CheckFull(g, out, all); len(bad) != 0 {
		t.Fatalf("independence violated: %v", bad[0])
	}
	if bad := (problems.DominatingSet{}).CheckFull(g, out, all); len(bad) != 0 {
		t.Fatalf("domination violated: %v", bad[0])
	}
}

// --- DMis / Luby --------------------------------------------------------

func TestLubyComputesMISOnStaticGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse", graph.GNP(256, 4.0/256, workload(1))},
		{"gnp-dense", graph.GNP(128, 0.2, workload(2))},
		{"cycle", graph.Cycle(99)},
		{"complete", graph.Complete(50)},
		{"star", graph.Star(80)},
		{"grid", graph.Grid(12, 12)},
		{"empty", graph.Empty(30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			e := engine.New(engine.Config{N: n, Seed: 5}, adversary.Static{G: tc.g}, NewLuby(n))
			if _, ok := e.RunUntil(300, func(info *engine.RoundInfo) bool {
				return allDecided(info.Outputs)
			}); !ok {
				t.Fatal("not all decided in 300 rounds")
			}
			checkMIS(t, tc.g, e.Outputs())
		})
	}
}

func TestLubyConvergesWithinWindow(t *testing.T) {
	// Lemma 5.4 practical check: all decided within the default window
	// across seeds.
	const n = 512
	for seed := uint64(1); seed <= 10; seed++ {
		g := graph.GNP(n, 8.0/n, workload(seed))
		e := engine.New(engine.Config{N: n, Seed: seed}, adversary.Static{G: g}, NewLuby(n))
		limit := DefaultMISWindow(n) - 1
		if _, ok := e.RunUntil(limit, func(info *engine.RoundInfo) bool {
			return allDecided(info.Outputs)
		}); !ok {
			t.Fatalf("seed %d: not decided within window %d", seed, limit)
		}
	}
}

func TestDMisDecidesUnderChurn(t *testing.T) {
	const n = 256
	base := graph.GNP(n, 8.0/n, workload(11))
	for seed := uint64(1); seed <= 5; seed++ {
		adv := &adversary.Churn{Base: base, Add: 10, Del: 10, Seed: seed}
		e := engine.New(engine.Config{N: n, Seed: seed * 3}, adv, NewDynamic(n))
		limit := DefaultMISWindow(n) - 1
		if _, ok := e.RunUntil(limit, func(info *engine.RoundInfo) bool {
			return allDecided(info.Outputs)
		}); !ok {
			t.Fatalf("seed %d: not decided within %d rounds under churn", seed, limit)
		}
	}
}

func TestDMisIndependenceOnSinceStartIntersection(t *testing.T) {
	// The independence half of A.2 holds deterministically on the
	// intersection of all graphs since start.
	const n = 200
	base := graph.GNP(n, 8.0/n, workload(13))
	adv := &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: 7}
	e := engine.New(engine.Config{N: n, Seed: 19}, adv, NewDynamic(n))
	var inter *graph.Graph
	e.OnRound(func(info *engine.RoundInfo) {
		if inter == nil {
			// Clone: the round-1 graph is pooled and inter is read on
			// every later round.
			inter = info.Graph().Clone()
		} else {
			inter = graph.Intersection(inter, info.Graph())
		}
		if bad := (problems.IndependentSet{}).CheckPartial(inter, info.Outputs); len(bad) != 0 {
			t.Fatalf("round %d: adjacent MIS nodes on intersection: %v", info.Round, bad[0])
		}
	})
	e.Run(60)
}

func TestDMisInputExtending(t *testing.T) {
	// Property A.1: an input (M, D) configuration is never retracted.
	const n = 64
	g := graph.GNP(n, 6.0/n, workload(17))
	input := make([]problems.Value, n)
	// Build a small valid partial solution: node 0 in M, neighbors D.
	input[0] = problems.InMIS
	for _, u := range g.Neighbors(0) {
		input[u] = problems.Dominated
	}
	e := engine.New(engine.Config{N: n, Seed: 23, Input: input}, adversary.Static{G: g}, NewDynamic(n))
	for r := 0; r < 30; r++ {
		info := e.Step()
		for v, in := range input {
			if in != problems.Bot && info.Outputs[v] != in {
				t.Fatalf("round %d: input value of node %d changed %d -> %d",
					info.Round, v, in, info.Outputs[v])
			}
		}
	}
}

func TestDMisNeverRevertsDecisions(t *testing.T) {
	const n = 128
	base := graph.GNP(n, 8.0/n, workload(19))
	adv := &adversary.Churn{Base: base, Add: 10, Del: 10, Seed: 3}
	e := engine.New(engine.Config{N: n, Seed: 29}, adv, NewDynamic(n))
	prev := make([]problems.Value, n)
	for r := 0; r < 50; r++ {
		info := e.Step()
		for v, out := range info.Outputs {
			if prev[v] != problems.Bot && out != prev[v] {
				t.Fatalf("round %d: node %d reverted %d -> %d", info.Round, v, prev[v], out)
			}
		}
		copy(prev, info.Outputs)
	}
}

func TestDMisEdgeDecayLemma52(t *testing.T) {
	// Lemma 5.2: E[|E(H_{r+2})|] <= (2/3)|E(H_r)| against oblivious
	// adversaries. Measure the average 2-round decay on a static graph
	// over several seeds; the average decay must be below the bound as
	// long as enough edges remain to make the ratio meaningful.
	const n = 512
	g := graph.GNP(n, 16.0/n, workload(23))
	var ratios []float64
	for seed := uint64(1); seed <= 8; seed++ {
		e := engine.New(engine.Config{N: n, Seed: seed}, adversary.Static{G: g}, NewLuby(n))
		prevH := -1
		e.OnRound(func(info *engine.RoundInfo) {
			if info.Round%2 != 0 {
				return
			}
			h := undecidedEdges(info.Graph(), info.Outputs)
			if prevH >= 50 { // ratio only meaningful with enough edges
				ratios = append(ratios, float64(h)/float64(prevH))
			}
			prevH = h
		})
		e.Run(20)
	}
	if len(ratios) < 8 {
		t.Fatalf("too few decay samples: %d", len(ratios))
	}
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	mean := sum / float64(len(ratios))
	if mean > ExpectedDecayBound {
		t.Fatalf("mean 2-round decay %.3f exceeds bound %.3f", mean, ExpectedDecayBound)
	}
}

func undecidedEdges(g *graph.Graph, out []problems.Value) int {
	count := 0
	g.EachEdge(func(u, v graph.NodeID) {
		if out[u] == problems.Bot && out[v] == problems.Bot {
			count++
		}
	})
	return count
}

// --- SMis / Ghaffari ----------------------------------------------------

func TestGhaffariComputesMISOnStaticGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(256, 8.0/256, workload(31))},
		{"cycle", graph.Cycle(77)},
		{"complete", graph.Complete(40)},
		{"grid", graph.Grid(10, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			e := engine.New(engine.Config{N: n, Seed: 7}, adversary.Static{G: tc.g}, NewGhaffari(n))
			if _, ok := e.RunUntil(400, func(info *engine.RoundInfo) bool {
				return allDecided(info.Outputs)
			}); !ok {
				t.Fatal("not all decided in 400 rounds")
			}
			checkMIS(t, tc.g, e.Outputs())
		})
	}
}

func TestSMisPartialSolutionEveryRound(t *testing.T) {
	// Property B.1 under heavy churn — with the documented exception
	// (reproduction note, see dmis.go): Algorithm 5 as published has a
	// one-round race in which a Dominated node is orphaned when its
	// dominator is demoted by a freshly inserted M–M edge within the same
	// round. The node's end-of-round state cannot depend on that 2-hop
	// event in one communication round, so the orphaning is unavoidable;
	// it must (a) be the ONLY violation type — independence and premature
	// domination must hold strictly — and (b) self-heal by the next round.
	const n = 128
	base := graph.GNP(n, 8.0/n, workload(37))
	adv := &adversary.Churn{Base: base, Add: 12, Del: 12, Seed: 5}
	e := engine.New(engine.Config{N: n, Seed: 31}, adv, NewNetworkStatic(n))
	chk := verify.NewPartial(problems.MIS())
	orphans := make(map[graph.NodeID]int) // node -> round orphaned
	totalViolations := 0
	e.OnRound(func(info *engine.RoundInfo) {
		// Healing check: last round's orphans must have left Dominated.
		for v, r := range orphans {
			if r < info.Round {
				if info.Outputs[v] == problems.Dominated {
					// Still dominated: must have a live dominator now.
					ok := false
					for _, u := range info.Graph().Neighbors(v) {
						if info.Outputs[u] == problems.InMIS {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("round %d: orphaned node %d did not heal", info.Round, v)
					}
				}
				delete(orphans, v)
			}
		}
		rep := chk.Observe(info.Graph(), info.Outputs)
		for _, viol := range rep.Violations {
			totalViolations++
			if viol.Reason != "dominated without MIS neighbor (partial)" {
				t.Fatalf("round %d: non-race B.1 violation: %v", info.Round, viol)
			}
			orphans[viol.Node] = info.Round
		}
	})
	e.Run(80)
	// With 12 insertions/round and an M-fraction around 1/3, roughly one
	// M–M insertion per round is expected, each orphaning ~1 node; far
	// more would indicate a second violation mechanism.
	if totalViolations > 2*80 {
		t.Fatalf("too many race violations: %d in 80 rounds", totalViolations)
	}
}

func TestSMisSelfHealsAdjacentMISNodes(t *testing.T) {
	// Two MIS nodes joined by a new edge must both leave M by the end of
	// the round.
	empty := graph.Empty(2)
	joined := graph.FromEdges(2, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	adv := adversary.NewScriptedStream(seq(empty, empty, empty, joined, joined, joined, joined,
		joined, joined, joined, joined, joined, joined, joined, joined).Cursor())
	e := engine.New(engine.Config{N: 2, Seed: 41}, adv, NewNetworkStatic(2))
	// Isolated undecided nodes become candidates eventually and join M.
	if _, ok := e.RunUntil(3, func(info *engine.RoundInfo) bool {
		return info.Outputs[0] == problems.InMIS && info.Outputs[1] == problems.InMIS
	}); !ok {
		t.Skip("isolated nodes did not both join M in 3 rounds (seed-dependent)")
	}
	info := e.Step() // edge appears: both receive marks, both leave M
	if info.Outputs[0] != problems.Bot || info.Outputs[1] != problems.Bot {
		t.Fatalf("adjacent MIS nodes kept state: %v", info.Outputs)
	}
	// Must eventually settle into one InMIS + one Dominated.
	if _, ok := e.RunUntil(40, func(info *engine.RoundInfo) bool {
		a, b := info.Outputs[0], info.Outputs[1]
		return (a == problems.InMIS && b == problems.Dominated) ||
			(a == problems.Dominated && b == problems.InMIS)
	}); !ok {
		t.Fatal("edge conflict never resolved to MIS+Dominated")
	}
}

func TestSMisDominationLossRecovers(t *testing.T) {
	// A dominated node whose dominator edge disappears must become
	// undecided and then re-decide.
	pair := graph.FromEdges(2, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	empty := graph.Empty(2)
	gs := []*graph.Graph{pair, pair, pair, pair, pair, pair, pair, pair}
	for i := 0; i < 12; i++ {
		gs = append(gs, empty)
	}
	adv := adversary.NewScriptedStream(seq(gs...).Cursor())
	e := engine.New(engine.Config{N: 2, Seed: 43}, adv, NewNetworkStatic(2))
	if _, ok := e.RunUntil(8, func(info *engine.RoundInfo) bool {
		a, b := info.Outputs[0], info.Outputs[1]
		return (a == problems.InMIS && b == problems.Dominated) ||
			(a == problems.Dominated && b == problems.InMIS)
	}); !ok {
		t.Fatal("pair did not decide within 8 rounds")
	}
	// After the edge disappears, the dominated node must become InMIS
	// (isolated nodes must dominate themselves).
	if _, ok := e.RunUntil(30, func(info *engine.RoundInfo) bool {
		return info.Outputs[0] == problems.InMIS && info.Outputs[1] == problems.InMIS
	}); !ok {
		t.Fatal("domination loss not recovered")
	}
}

func TestSMisStabilizesOnStaticGraph(t *testing.T) {
	const n = 256
	g := graph.GNP(n, 8.0/n, workload(47))
	e := engine.New(engine.Config{N: n, Seed: 53}, adversary.Static{G: g}, NewNetworkStatic(n))
	T := (&SMisFactory{N: n}).StabilizationTime(n)
	e.Run(T)
	if !allDecided(e.Outputs()) {
		t.Fatalf("not all decided after T=%d rounds on static graph", T)
	}
	frozen := append([]problems.Value(nil), e.Outputs()...)
	for r := 0; r < 20; r++ {
		info := e.Step()
		for v, out := range info.Outputs {
			if out != frozen[v] {
				t.Fatalf("round %d: node %d changed %d -> %d on static graph",
					info.Round, v, frozen[v], out)
			}
		}
	}
	checkMIS(t, g, frozen)
}

func TestSMisDesireFloor(t *testing.T) {
	// Footnote 11: desire levels never fall below 1/(5n).
	const n = 64
	g := graph.Complete(n) // max contention pushes desires down
	f := &SMisFactory{N: n}
	var minSeen float64 = 1
	f.Probe = func(ev DesireEvent) {
		if ev.Desire < minSeen {
			minSeen = ev.Desire
		}
	}
	alg := singleFrom(f)
	e := engine.New(engine.Config{N: n, Seed: 59, Workers: 1}, adversary.Static{G: g}, alg)
	e.Run(100)
	if minSeen < 1.0/(5.0*n)-1e-12 {
		t.Fatalf("desire level %v fell below floor %v", minSeen, 1.0/(5.0*n))
	}
}

// --- Combined (Corollary 1.3) -------------------------------------------

func TestMISConcatTDynamicEveryRound(t *testing.T) {
	const n = 128
	base := graph.GNP(n, 6.0/n, workload(61))
	combined := NewMIS(n)
	adv := &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 17}
	e := engine.New(engine.Config{N: n, Seed: 61}, adv, combined)
	chk := verify.NewTDynamic(problems.MIS(), combined.T1, n)
	invalid := 0
	var firstBad string
	e.OnRound(func(info *engine.RoundInfo) {
		rep := chk.Feed(info.Delta())
		if !rep.Valid() {
			invalid++
			if firstBad == "" {
				if len(rep.PackingViolations) > 0 {
					firstBad = rep.PackingViolations[0].String()
				} else if len(rep.CoverViolations) > 0 {
					firstBad = rep.CoverViolations[0].String()
				} else {
					firstBad = "⊥ in core"
				}
			}
		}
	})
	e.Run(3 * combined.T1)
	if invalid != 0 {
		t.Fatalf("%d invalid rounds (first: %s): Corollary 1.3 violated", invalid, firstBad)
	}
}

func TestMISConcatLocallyStatic(t *testing.T) {
	const n = 96
	base := graph.GNP(n, 6.0/n, workload(71))
	combined := NewMIS(n)
	protected := []graph.NodeID{3, 50, 90}
	adv := &adversary.LocalStatic{
		Inner:     &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: 23},
		Base:      base,
		Protected: protected,
		Alpha:     combined.Alpha(),
	}
	e := engine.New(engine.Config{N: n, Seed: 67}, adv, combined)
	wait := combined.StabilityWait()
	lastOut := make([]problems.Value, n)
	var changes []int
	e.OnRound(func(info *engine.RoundInfo) {
		for _, v := range protected {
			if info.Round > wait && info.Outputs[v] != lastOut[v] {
				changes = append(changes, info.Round)
			}
			lastOut[v] = info.Outputs[v]
		}
	})
	e.Run(wait + 40)
	if len(changes) != 0 {
		t.Fatalf("protected nodes changed output after stabilization at rounds %v", changes)
	}
	for _, v := range protected {
		if lastOut[v] == problems.Bot {
			t.Fatalf("protected node %d still ⊥", v)
		}
	}
}

func TestDMisTruncatedAlphas(t *testing.T) {
	// The Section 2 remark: poly log n-bit messages suffice. With alphas
	// truncated to 2⌈log₂n⌉+4 bits the algorithm must still compute a
	// valid MIS (the id tie-break keeps adjacent simultaneous joins
	// impossible even under collisions), in essentially the same number
	// of rounds.
	const n = 256
	g := graph.GNP(n, 8.0/n, workload(97))
	bits := 2*ceilLog2(n+1) + 4
	f := &DMisFactory{N: n, AlphaBits: bits}
	alg := core.Single{Label: "dmis-trunc", Factory: func(v graph.NodeID) core.NodeInstance {
		return f.NewNode(v)
	}, Bits: f.MessageBits}
	e := engine.New(engine.Config{N: n, Seed: 83}, adversary.Static{G: g}, alg)
	var bitsSeen int64
	e.OnRound(func(info *engine.RoundInfo) { bitsSeen += info.Bits })
	round, ok := e.RunUntil(DefaultMISWindow(n), func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	})
	if !ok {
		t.Fatalf("truncated-alpha DMis not decided within window (round %d)", round)
	}
	checkMIS(t, g, e.Outputs())
	if bitsSeen == 0 {
		t.Fatal("no message bits accounted")
	}
	// Degenerate truncation (1 bit): ties everywhere, id tie-break must
	// still yield a correct MIS, if more slowly.
	f1 := &DMisFactory{N: n, AlphaBits: 1}
	alg1 := core.Single{Label: "dmis-1bit", Factory: func(v graph.NodeID) core.NodeInstance {
		return f1.NewNode(v)
	}}
	e1 := engine.New(engine.Config{N: n, Seed: 89}, adversary.Static{G: g}, alg1)
	if _, ok := e1.RunUntil(500, func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	}); !ok {
		t.Fatal("1-bit-alpha DMis never decided")
	}
	checkMIS(t, g, e1.Outputs())
}

// --- Chain (triple combiner, Section 3 remark) ----------------------------

func TestChainedMISTDynamicEveryRound(t *testing.T) {
	const n = 96
	base := graph.GNP(n, 6.0/n, workload(91))
	chained := NewChainedMIS(n, DefaultMISWindow(n)/2)
	adv := &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 31}
	e := engine.New(engine.Config{N: n, Seed: 71}, adv, chained)
	chk := verify.NewTDynamic(problems.MIS(), chained.T1, n)
	invalid := 0
	var first string
	e.OnRound(func(info *engine.RoundInfo) {
		rep := chk.Feed(info.Delta())
		if !rep.Valid() {
			invalid++
			if first == "" {
				switch {
				case len(rep.PackingViolations) > 0:
					first = rep.PackingViolations[0].String()
				case len(rep.CoverViolations) > 0:
					first = rep.CoverViolations[0].String()
				default:
					first = "⊥ in core"
				}
			}
		}
	})
	e.Run(3 * chained.T1)
	if invalid != 0 {
		t.Fatalf("%d invalid rounds (first: %s)", invalid, first)
	}
}

func TestChainedMISLocallyStatic(t *testing.T) {
	const n = 96
	base := graph.GNP(n, 6.0/n, workload(93))
	chained := NewChainedMIS(n, DefaultMISWindow(n)/2)
	protected := []graph.NodeID{10, 60}
	adv := &adversary.LocalStatic{
		Inner:     &adversary.Churn{Base: base, Add: 6, Del: 6, Seed: 37},
		Base:      base,
		Protected: protected,
		Alpha:     chained.Alpha(),
	}
	e := engine.New(engine.Config{N: n, Seed: 73}, adv, chained)
	wait := chained.StabilityWait()
	lastOut := make([]problems.Value, n)
	var changes []int
	e.OnRound(func(info *engine.RoundInfo) {
		for _, v := range protected {
			if info.Round > wait && info.Outputs[v] != lastOut[v] {
				changes = append(changes, info.Round)
			}
			lastOut[v] = info.Outputs[v]
		}
	})
	e.Run(wait + 40)
	if len(changes) != 0 {
		t.Fatalf("protected nodes changed after T1+Tm+T2 at rounds %v", changes)
	}
	for _, v := range protected {
		if lastOut[v] == problems.Bot {
			t.Fatalf("protected node %d still ⊥", v)
		}
	}
}

func TestChainedMISMidPipelineFreshness(t *testing.T) {
	// The remark's property (b) — "satisfies the stronger dynamic
	// guarantees if the topological changes are only of the required
	// limited form" — is observable at the MID layer: its output
	// satisfies the Tm-dynamic condition (a fresher window than the
	// outer T1) under mild churn. The outer layer cannot carry
	// freshness through its own T1-round latency; it contributes the
	// unconditional guarantee (tested separately).
	const n = 96
	midW := DefaultMISWindow(n) / 2
	base := graph.GNP(n, 6.0/n, workload(95))
	chained := NewChainedMIS(n, midW)
	midOut := make([]problems.Value, n)
	chained.MidProbe = func(v graph.NodeID, round int, out problems.Value) {
		midOut[v] = out
	}
	adv := &adversary.Churn{Base: base, Add: 1, Del: 1, Seed: 41} // mild
	// Workers: 1 so the probe needs no synchronization.
	e := engine.New(engine.Config{N: n, Seed: 79, Workers: 1}, adv, chained)
	chk := verify.NewTDynamic(problems.MIS(), midW, n)
	var feed verifytest.GraphFeed // midOut is not an engine output: diff it
	invalid, counted := 0, 0
	e.OnRound(func(info *engine.RoundInfo) {
		rep := chk.Feed(feed.Next(info.Graph(), info.Wake, midOut))
		if info.Round > 2*chained.T1 {
			counted++
			if !rep.Valid() {
				invalid++
			}
		}
	})
	e.Run(4 * chained.T1)
	if counted == 0 {
		t.Fatal("no rounds counted")
	}
	// Under mild churn the mid layer should satisfy the fresher window
	// in (nearly) every round; small slack for transients the smaller
	// window legitimately exposes.
	if frac := float64(invalid) / float64(counted); frac > 0.2 {
		t.Fatalf("mid-layer invalid fraction %.2f against window %d", frac, midW)
	}
}

// --- Clairvoyant adversary (remark after Lemma 5.2) ----------------------

func TestClairvoyantAdversaryVoidsDMisGuarantees(t *testing.T) {
	// The adaptive-offline adversary of the remark after Lemma 5.2
	// cannot keep nodes undecided (every graph has a local α-minimum),
	// but by burning exactly the (v→w) witness edges it makes the event
	// (v→w)_r impossible: NO node is ever dominated, the output
	// degenerates to M = V, and the result is massively dependent (w.r.t.
	// the footprint graph) — the guarantees hold only vacuously, against
	// an emptied intersection graph. Against the oblivious adversary the
	// same seed yields a proper MIS with a large dominated fraction.
	const n = 128
	const seed = 77
	g := graph.GNP(n, 10.0/n, workload(83))

	// Oblivious baseline: static graph, proper MIS.
	e1 := engine.New(engine.Config{N: n, Seed: seed}, adversary.Static{G: g}, NewLuby(n))
	if _, ok := e1.RunUntil(1000, func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	}); !ok {
		t.Fatal("oblivious run did not decide")
	}
	checkMIS(t, g, e1.Outputs())
	dominated := 0
	for _, out := range e1.Outputs() {
		if out == problems.Dominated {
			dominated++
		}
	}
	if dominated == 0 {
		t.Fatal("oblivious run dominated nobody (degenerate workload)")
	}

	// Clairvoyant run: same seed, same base graph.
	staller := &adversary.LubyStaller{Base: g, Seed: seed, Purpose: prf.PurposeLubyAlpha}
	e2 := engine.New(engine.Config{N: n, Seed: seed, OutputLag: 1}, staller, NewDynamic(n))
	e2.RunUntil(1000, func(info *engine.RoundInfo) bool {
		return allDecided(info.Outputs)
	})
	for v, out := range e2.Outputs() {
		if out == problems.Dominated {
			t.Fatalf("node %d got dominated despite clairvoyant edge deletion", v)
		}
		if out != problems.InMIS {
			t.Fatalf("node %d not decided under clairvoyant adversary", v)
		}
	}
	if staller.Deleted == 0 {
		t.Fatal("adversary deleted no edges")
	}
	// The degenerate M = V output is wildly dependent on the footprint.
	if bad := (problems.IndependentSet{}).CheckFull(g, e2.Outputs(), adversary.AllNodes(n)); len(bad) == 0 {
		t.Fatal("expected massive independence violations w.r.t. the footprint graph")
	}
}

// --- helpers --------------------------------------------------------------

func singleFrom(f *SMisFactory) engine.Algorithm {
	return core.Single{Label: f.Name(), Factory: func(v graph.NodeID) core.NodeInstance {
		return f.NewNode(v)
	}}
}

// seq records a graph sequence as a trace in which every node wakes in
// round 1.
func seq(gs ...*graph.Graph) *dyngraph.Trace {
	tr := dyngraph.NewTrace(gs[0].N())
	var prev *graph.Graph
	for i, g := range gs {
		var wake []graph.NodeID
		if i == 0 {
			wake = adversary.AllNodes(g.N())
		}
		tr.Append(prev, g, wake)
		prev = g
	}
	return tr
}
