package coloring

import (
	"sync"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

func workload(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func allColored(out []problems.Value) bool {
	for _, v := range out {
		if v == problems.Bot {
			return false
		}
	}
	return true
}

// --- palette ----------------------------------------------------------

func TestPaletteBasics(t *testing.T) {
	var p palette
	p.reset(70)
	if p.len() != 70 || !p.contains(1) || !p.contains(70) || p.contains(71) || p.contains(0) {
		t.Fatal("fresh palette wrong")
	}
	p.remove(70)
	p.remove(70) // idempotent
	if p.len() != 69 || p.contains(70) {
		t.Fatal("remove failed")
	}
	p.remove(999) // out of range: no-op
	if p.len() != 69 {
		t.Fatal("out-of-range remove changed size")
	}
}

func TestPalettePickUniform(t *testing.T) {
	var p palette
	p.reset(8)
	p.remove(3)
	p.remove(7)
	s := prf.NewStream(5, 1, 1, prf.PurposeTentativeColor)
	counts := make(map[int64]int)
	const samples = 60000
	for i := 0; i < samples; i++ {
		c := p.pick(s)
		if c == 3 || c == 7 || c < 1 || c > 8 {
			t.Fatalf("picked removed/out-of-range color %d", c)
		}
		counts[c]++
	}
	expected := samples / 6
	for c, cnt := range counts {
		if cnt < expected*8/10 || cnt > expected*12/10 {
			t.Fatalf("color %d picked %d times, expected ~%d", c, cnt, expected)
		}
	}
}

func TestPalettePickEmptyPanics(t *testing.T) {
	var p palette
	p.reset(0)
	s := prf.NewStream(1, 1, 1, prf.PurposeTentativeColor)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.pick(s)
}

func TestPaletteWordBoundaries(t *testing.T) {
	var p palette
	p.reset(64)
	if p.len() != 64 || !p.contains(64) || p.contains(65) {
		t.Fatal("64-color palette wrong")
	}
	var p2 palette
	p2.reset(65)
	if p2.len() != 65 || !p2.contains(65) {
		t.Fatal("65-color palette wrong")
	}
}

// TestPaletteStoragePaths: a palette of up to 64 colors lives in its
// inline word and a larger one on the heap. One palette is reset back and
// forth across 64 colors, and in each size its membership, size and
// uniform picks must match a reference set.
func TestPaletteStoragePaths(t *testing.T) {
	var p palette
	s := prf.NewStream(9, 1, 1, prf.PurposeTentativeColor)
	for _, k := range []int{1, 40, 64, 65, 130, 63, 200, 2} {
		p.reset(k)
		if inline := &p.words[0] == &p.first[0]; inline != (k <= 64) {
			t.Fatalf("k=%d: inline storage %v, want %v", k, inline, k <= 64)
		}
		ref := make(map[int64]bool)
		for c := int64(1); c <= int64(k); c++ {
			ref[c] = true
		}
		for c := int64(3); c <= int64(k); c += 7 {
			p.remove(c)
			delete(ref, c)
		}
		if p.len() != len(ref) {
			t.Fatalf("k=%d: size %d, want %d", k, p.len(), len(ref))
		}
		for c := int64(0); c <= int64(k)+65; c++ {
			if p.contains(c) != ref[c] {
				t.Fatalf("k=%d: contains(%d) = %v, want %v", k, c, p.contains(c), ref[c])
			}
		}
		for i := 0; i < 200; i++ {
			if c := p.pick(s); !ref[c] {
				t.Fatalf("k=%d: picked color %d outside the palette", k, c)
			}
		}
	}
}

// --- Basic (Algorithm 6) ---------------------------------------------

func TestBasicColorsStaticGraph(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(256, 8.0/256, workload(1))},
		{"cycle", graph.Cycle(101)},
		{"complete", graph.Complete(40)},
		{"star", graph.Star(64)},
		{"caterpillar", graph.Caterpillar(20, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			e := engine.New(engine.Config{N: n, Seed: 11}, adversary.Static{G: tc.g}, NewBasic(n))
			round, ok := e.RunUntil(40*1, func(info *engine.RoundInfo) bool {
				return allColored(info.Outputs)
			})
			if !ok {
				t.Fatalf("not all colored after %d rounds", round)
			}
			out := e.Outputs()
			if bad := (problems.ProperColoring{}).CheckFull(tc.g, out, adversary.AllNodes(n)); len(bad) != 0 {
				t.Fatalf("improper coloring: %v", bad[0])
			}
			if bad := (problems.DegreeRange{}).CheckFull(tc.g, out, adversary.AllNodes(n)); len(bad) != 0 {
				t.Fatalf("range violation: %v", bad[0])
			}
		})
	}
}

func TestBasicConvergesWithinWindow(t *testing.T) {
	// The default window must comfortably cover the measured all-colored
	// time on moderately dense G(n,p) across seeds (Lemma 6.2).
	const n = 512
	for seed := uint64(1); seed <= 10; seed++ {
		g := graph.GNP(n, 10.0/n, workload(seed))
		e := engine.New(engine.Config{N: n, Seed: seed}, adversary.Static{G: g}, NewBasic(n))
		limit := DefaultColoringWindow(n) - 1
		if _, ok := e.RunUntil(limit, func(info *engine.RoundInfo) bool {
			return allColored(info.Outputs)
		}); !ok {
			t.Fatalf("seed %d: not colored within window %d", seed, limit)
		}
	}
}

func TestBasicNeverUncolors(t *testing.T) {
	const n = 128
	g := graph.GNP(n, 6.0/n, workload(3))
	e := engine.New(engine.Config{N: n, Seed: 7}, adversary.Static{G: g}, NewBasic(n))
	prev := make([]problems.Value, n)
	for r := 0; r < 30; r++ {
		info := e.Step()
		for v, out := range info.Outputs {
			if prev[v] != problems.Bot && out != prev[v] {
				t.Fatalf("round %d: node %d changed %d -> %d", info.Round, v, prev[v], out)
			}
		}
		copy(prev, info.Outputs)
	}
}

func TestBasicLemma61Progress(t *testing.T) {
	// Lemma 6.1: each round, an uncolored node is colored with
	// probability >= 1/64 or its palette shrinks by >= 1/4. Measure the
	// empirical conditional frequency.
	const n = 400
	g := graph.GNP(n, 12.0/n, workload(9))
	var mu sync.Mutex
	slowRounds, slowColored := 0, 0
	f := &BasicFactory{N: n, Probe: func(ev Event) {
		if !ev.WasUncolored || ev.PaletteBefore == 0 {
			return
		}
		shrank := 4*ev.Removed >= ev.PaletteBefore
		if !shrank {
			mu.Lock()
			slowRounds++
			if ev.GotColored {
				slowColored++
			}
			mu.Unlock()
		}
	}}
	alg := core.Single{Label: f.Name(), Factory: func(v graph.NodeID) core.NodeInstance {
		return f.NewNode(v)
	}}
	e := engine.New(engine.Config{N: n, Seed: 13, Workers: 1}, adversary.Static{G: g}, alg)
	e.Run(25)
	if slowRounds == 0 {
		t.Fatal("no slow (non-shrinking) rounds observed — test ineffective")
	}
	freq := float64(slowColored) / float64(slowRounds)
	if freq < 1.0/64 {
		t.Fatalf("coloring probability in non-shrinking rounds %.4f < 1/64", freq)
	}
}

// --- DColor (Algorithm 2) ---------------------------------------------

func TestDColorColorsUnderChurn(t *testing.T) {
	// Lemma 4.4: after T-1 rounds of DColor all nodes are colored w.h.p.,
	// for ANY dynamic graph.
	const n = 256
	base := graph.GNP(n, 8.0/n, workload(21))
	for seed := uint64(1); seed <= 5; seed++ {
		adv := &adversary.Churn{Base: base, Add: 10, Del: 10, Seed: seed}
		e := engine.New(engine.Config{N: n, Seed: seed * 7}, adv, NewDynamic(n))
		limit := DefaultColoringWindow(n) - 1
		if _, ok := e.RunUntil(limit, func(info *engine.RoundInfo) bool {
			return allColored(info.Outputs)
		}); !ok {
			t.Fatalf("seed %d: not colored within %d rounds under churn", seed, limit)
		}
	}
}

func TestDColorInputExtending(t *testing.T) {
	// Property A.1: the output extends the input and never changes a
	// colored node.
	const n = 64
	g := graph.GNP(n, 6.0/n, workload(2))
	input := make([]problems.Value, n)
	// Pre-color nodes 0..9 with a valid partial solution: use distinct
	// colors within degree+1 range... color 1 for an independent set.
	mis := []graph.NodeID{}
	taken := make([]bool, n)
	for v := graph.NodeID(0); v < graph.NodeID(n) && len(mis) < 10; v++ {
		ok := true
		for _, u := range g.Neighbors(v) {
			if taken[u] {
				ok = false
				break
			}
		}
		if ok {
			taken[v] = true
			mis = append(mis, v)
			input[v] = 1
		}
	}
	e := engine.New(engine.Config{N: n, Seed: 3, Input: input}, adversary.Static{G: g}, NewDynamic(n))
	for r := 0; r < 25; r++ {
		info := e.Step()
		for _, v := range mis {
			if info.Outputs[v] != 1 {
				t.Fatalf("round %d: input color of %d changed to %d", info.Round, v, info.Outputs[v])
			}
		}
	}
}

func TestDColorRespectsIntersectionPacking(t *testing.T) {
	// A single DColor instance started in round 1 communicates on the
	// intersection of ALL graphs since its start: its output is a proper
	// coloring of that since-start intersection in every round,
	// deterministically. (The sliding-window T-dynamic guarantee is what
	// Concat's instance pipeline adds on top; tested separately.)
	const n = 200
	base := graph.GNP(n, 8.0/n, workload(31))
	adv := &adversary.Churn{Base: base, Add: 6, Del: 6, Seed: 5}
	e := engine.New(engine.Config{N: n, Seed: 9}, adv, NewDynamic(n))
	var inter *graph.Graph
	bad := 0
	e.OnRound(func(info *engine.RoundInfo) {
		if inter == nil {
			// Clone: the round-1 graph is pooled and inter is read on
			// every later round.
			inter = info.Graph().Clone()
		} else {
			inter = graph.Intersection(inter, info.Graph())
		}
		bad += len((problems.ProperColoring{}).CheckPartial(inter, info.Outputs))
	})
	e.Run(60)
	if bad != 0 {
		t.Fatalf("%d packing violations on since-start intersection graph", bad)
	}
}

func TestDColorLemma42Invariant(t *testing.T) {
	// Lemma 4.2: |P_v| >= |U(v)| + 1 in every round. We verify the weaker
	// but sufficient consequence that the palette never empties while the
	// node is uncolored (pick would panic otherwise) and that all nodes
	// color eventually even on the complete graph (max contention).
	const n = 48
	g := graph.Complete(n)
	e := engine.New(engine.Config{N: n, Seed: 17}, adversary.Static{G: g}, NewDynamic(n))
	if _, ok := e.RunUntil(200, func(info *engine.RoundInfo) bool {
		return allColored(info.Outputs)
	}); !ok {
		t.Fatal("complete graph not colored in 200 rounds")
	}
	out := e.Outputs()
	if bad := (problems.ProperColoring{}).CheckFull(g, out, adversary.AllNodes(n)); len(bad) != 0 {
		t.Fatalf("K%d coloring improper: %v", n, bad[0])
	}
}

// --- SColor (Algorithm 3) ---------------------------------------------

func TestSColorPartialSolutionEveryRound(t *testing.T) {
	// Property B.1: partial solution for (C_P, C_C) in G_r at the end of
	// EVERY round, even under heavy churn.
	const n = 128
	base := graph.GNP(n, 8.0/n, workload(41))
	adv := &adversary.Churn{Base: base, Add: 12, Del: 12, Seed: 3}
	e := engine.New(engine.Config{N: n, Seed: 23}, adv, NewNetworkStatic(n))
	chk := verify.NewPartial(problems.Coloring())
	e.OnRound(func(info *engine.RoundInfo) {
		if rep := chk.Observe(info.Graph(), info.Outputs); !rep.Valid() {
			t.Fatalf("round %d: B.1 violated: %v", info.Round, rep.Violations[0])
		}
	})
	e.Run(80)
}

func TestSColorStabilizesOnStaticGraph(t *testing.T) {
	// B.2 with a globally static graph: all nodes colored and fixed after
	// T rounds.
	const n = 256
	g := graph.GNP(n, 8.0/n, workload(51))
	e := engine.New(engine.Config{N: n, Seed: 29}, adversary.Static{G: g}, NewNetworkStatic(n))
	T := (&SColorFactory{}).StabilizationTime(n)
	e.Run(T)
	if !allColored(e.Outputs()) {
		t.Fatalf("not all colored after T=%d rounds on static graph", T)
	}
	frozen := append([]problems.Value(nil), e.Outputs()...)
	for r := 0; r < 20; r++ {
		info := e.Step()
		for v, out := range info.Outputs {
			if out != frozen[v] {
				t.Fatalf("round %d: node %d changed %d -> %d on static graph", info.Round, v, frozen[v], out)
			}
		}
	}
}

func TestSColorUncolorsOnConflict(t *testing.T) {
	// Two nodes colored identically joined by a new edge must both
	// un-color by the end of the round (B.1 self-healing).
	empty := graph.Empty(2)
	joined := graph.FromEdges(2, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	adv := adversary.NewScriptedStream(scriptedSeq(empty, empty, joined, joined, joined, joined, joined, joined).Cursor())
	e := engine.New(engine.Config{N: 2, Seed: 31}, adv, NewNetworkStatic(2))
	e.Run(2) // both isolated: both take color 1
	out := e.Outputs()
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("isolated nodes not colored 1: %v", out)
	}
	info := e.Step() // conflict edge appears: both must un-color
	if info.Outputs[0] != problems.Bot || info.Outputs[1] != problems.Bot {
		t.Fatalf("conflicting nodes kept colors: %v", info.Outputs)
	}
	// And they must re-color properly within a few rounds.
	if _, ok := e.RunUntil(30, func(info *engine.RoundInfo) bool {
		return info.Outputs[0] != problems.Bot && info.Outputs[1] != problems.Bot &&
			info.Outputs[0] != info.Outputs[1]
	}); !ok {
		t.Fatal("conflict not resolved")
	}
}

func TestSColorUncolorsOnRangeViolation(t *testing.T) {
	// A node colored 2 whose degree drops to 0 must un-color (covering).
	star := graph.Star(3)
	empty := graph.Empty(3)
	adv := adversary.NewScriptedStream(scriptedSeq(star, star, star, star, star, star, star, star,
		empty, empty, empty, empty).Cursor())
	e := engine.New(engine.Config{N: 3, Seed: 37}, adv, NewNetworkStatic(3))
	e.Run(8)
	out := e.Outputs()
	var big graph.NodeID = -1
	for v, o := range out {
		if o > 1 {
			big = graph.NodeID(v)
		}
	}
	if big == -1 {
		t.Skip("no node took a color > 1 (all colored 1 after conflicts); seed-dependent")
	}
	e.Run(1) // graph now empty: degree 0, palette {1}
	if e.Outputs()[big] > 1 {
		t.Fatalf("node %d kept out-of-range color %d at degree 0", big, e.Outputs()[big])
	}
}

// --- Combined (Corollary 1.2) -----------------------------------------

func TestColoringConcatTDynamicEveryRound(t *testing.T) {
	const n = 128
	base := graph.GNP(n, 6.0/n, workload(61))
	combined := NewColoring(n)
	adv := &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 11}
	e := engine.New(engine.Config{N: n, Seed: 41}, adv, combined)
	chk := verify.NewTDynamic(problems.Coloring(), combined.T1, n)
	invalid := 0
	e.OnRound(func(info *engine.RoundInfo) {
		rep := chk.Feed(info.Delta())
		if !rep.Valid() {
			invalid++
		}
	})
	e.Run(3 * combined.T1)
	if invalid != 0 {
		t.Fatalf("%d invalid rounds (want 0): Corollary 1.2 violated", invalid)
	}
}

func TestColoringConcatLocallyStatic(t *testing.T) {
	// Theorem 1.1(2): if the 2-ball of v is static, v's output is fixed
	// after T1+T2 rounds.
	const n = 96
	base := graph.GNP(n, 6.0/n, workload(71))
	combined := NewColoring(n)
	protected := []graph.NodeID{5, 40, 77}
	adv := &adversary.LocalStatic{
		Inner:     &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: 13},
		Base:      base,
		Protected: protected,
		Alpha:     combined.Alpha(),
	}
	e := engine.New(engine.Config{N: n, Seed: 43}, adv, combined)
	wait := combined.StabilityWait()
	var changes []int
	lastOut := make([]problems.Value, n)
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
			t.Fatalf("protected node %d still ⊥ after %d rounds", v, wait+40)
		}
	}
}

// --- helpers ------------------------------------------------------------

// scriptedSeq records a graph sequence as a trace in which every node
// wakes in round 1.
func scriptedSeq(gs ...*graph.Graph) *dyngraph.Trace {
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
