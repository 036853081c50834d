package adversary

import (
	"bytes"
	"slices"
	"testing"

	"dynlocal/internal/dyngraph"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// fakeView is a scriptable View for adversary unit tests. Its play helper
// folds each step's diff through a graph.Patcher, so tests can assert on
// the topology an adversary leads to. Folded graphs are pooled (valid for
// the current and next play); tests that retain one longer Clone it.
type fakeView struct {
	round   int
	n       int
	awake   []bool
	delayed []problems.Value
	p       *graph.Patcher
}

func (f *fakeView) Round() int { return f.round }
func (f *fakeView) N() int     { return f.n }
func (f *fakeView) Awake(v graph.NodeID) bool {
	if f.awake == nil {
		return true
	}
	return f.awake[v]
}
func (f *fakeView) DelayedOutputs() []problems.Value { return f.delayed }

func newFakeView(n int) *fakeView {
	return &fakeView{round: 0, n: n, p: graph.NewPatcher(n)}
}

// played is one step together with the topology G_r it folds to.
type played struct {
	Step
	//dynlint:loan
	G *graph.Graph
}

// play advances the adversary one round and folds its diff (the patcher
// panics on an inexact one).
func (f *fakeView) play(a Adversary) played {
	f.round++
	st := a.Step(f)
	return played{Step: st, G: f.p.Apply(st.EdgeAdds, st.EdgeRemoves)}
}

func TestStaticAdversary(t *testing.T) {
	g := graph.Cycle(5)
	adv := Static{G: g}
	v := newFakeView(5)
	st := v.play(adv)
	if len(st.Wake) != 5 {
		t.Fatalf("round 1 wake = %v", st.Wake)
	}
	if !st.G.Equal(g) {
		t.Fatal("round 1 graph differs")
	}
	st = v.play(adv)
	if len(st.Wake) != 0 || !st.G.Equal(g) {
		t.Fatal("round 2 step wrong")
	}
}

func TestAlternator(t *testing.T) {
	a, b := graph.Path(4), graph.Cycle(4)
	adv := &Alternator{A: a, B: b, Period: 2}
	v := newFakeView(4)
	want := []*graph.Graph{a, a, b, b, a, a, b}
	for i, wg := range want {
		st := v.play(adv)
		if !st.G.Equal(wg) {
			t.Fatalf("round %d: wrong phase graph", i+1)
		}
	}
	// Period 0 behaves as 1.
	adv0 := &Alternator{A: a, B: b}
	v0 := newFakeView(4)
	if st := v0.play(adv0); !st.G.Equal(a) {
		t.Fatal("period-0 round 1 should play A")
	}
	if st := v0.play(adv0); !st.G.Equal(b) {
		t.Fatal("period-0 round 2 should play B")
	}
}

func TestScriptedReplaysTrace(t *testing.T) {
	const n = 10
	s := prf.NewStream(3, 0, 0, prf.PurposeWorkload)
	tr := dyngraph.NewTrace(n)
	var prev *graph.Graph
	var graphs []*graph.Graph
	for r := 1; r <= 5; r++ {
		g := graph.GNP(n, 0.3, s)
		var wake []graph.NodeID
		if r == 1 {
			wake = AllNodes(n)
		}
		tr.Append(prev, g, wake)
		graphs = append(graphs, g)
		prev = g
	}
	adv := NewScripted(tr)
	v := newFakeView(n)
	for r := 1; r <= 5; r++ {
		st := v.play(adv)
		if !st.G.Equal(graphs[r-1]) {
			t.Fatalf("round %d replay mismatch", r)
		}
	}
	// Past the end: keeps playing the last graph.
	st := v.play(adv)
	if !st.G.Equal(graphs[4]) {
		t.Fatal("post-trace round should repeat last graph")
	}
}

func TestChurnMaintainsEdgeBudget(t *testing.T) {
	base := graph.GNP(40, 0.2, prf.NewStream(1, 0, 0, prf.PurposeWorkload))
	adv := &Churn{Base: base, Add: 3, Del: 3, Seed: 42}
	v := newFakeView(40)
	st := v.play(adv)
	if st.G.M() != base.M() {
		t.Fatalf("round 1 should play the base graph: %d vs %d", st.G.M(), base.M())
	}
	prevEdges := st.G.M()
	for r := 2; r <= 20; r++ {
		st = v.play(adv)
		diff := st.G.M() - prevEdges
		// Del removes up to 3, Add inserts up to 3 (collisions allowed).
		if diff < -3 || diff > 3 {
			t.Fatalf("round %d: edge count jumped by %d", r, diff)
		}
		prevEdges = st.G.M()
	}
}

func TestChurnActuallyChurns(t *testing.T) {
	base := graph.GNP(30, 0.2, prf.NewStream(2, 0, 0, prf.PurposeWorkload))
	adv := &Churn{Base: base, Add: 5, Del: 5, Seed: 7}
	v := newFakeView(30)
	first := v.play(adv).G.Clone() // retained past the patcher's pooling window
	tenth := first
	for r := 2; r <= 10; r++ {
		tenth = v.play(adv).G
	}
	if first.Equal(tenth) {
		t.Fatal("graph did not change after 9 churn rounds")
	}
}

func TestEdgeMarkovConfinedToFootprint(t *testing.T) {
	foot := graph.Cycle(12)
	adv := &EdgeMarkov{Footprint: foot, POn: 0.5, POff: 0.5, Seed: 9}
	v := newFakeView(12)
	for r := 1; r <= 25; r++ {
		st := v.play(adv)
		st.G.EachEdge(func(x, y graph.NodeID) {
			if !foot.HasEdge(x, y) {
				t.Fatalf("round %d: edge {%d,%d} outside footprint", r, x, y)
			}
		})
	}
}

func TestEdgeMarkovFlips(t *testing.T) {
	foot := graph.Complete(8)
	adv := &EdgeMarkov{Footprint: foot, POn: 0.3, POff: 0.3, Seed: 11}
	v := newFakeView(8)
	g1 := v.play(adv).G
	if g1.M() != foot.M() {
		t.Fatal("round 1 should start with footprint on")
	}
	g2 := v.play(adv).G
	if g1.Equal(g2) {
		t.Fatal("no flips at p=0.3 over 28 edges (astronomically unlikely)")
	}
}

func TestLocalStaticFreezesBall(t *testing.T) {
	s := prf.NewStream(5, 0, 0, prf.PurposeWorkload)
	base := graph.GNP(40, 0.15, s)
	const protectedNode = 7
	const alpha = 2
	adv := &LocalStatic{
		Inner:     &Churn{Base: base, Add: 8, Del: 8, Seed: 13},
		Base:      base,
		Protected: []graph.NodeID{protectedNode},
		Alpha:     alpha,
	}
	v := newFakeView(40)
	first := v.play(adv).G
	if !graph.BallStatic(base, first, protectedNode, alpha) {
		t.Fatal("round 1 ball differs from base")
	}
	changedElsewhere := false
	prev := first
	for r := 2; r <= 30; r++ {
		g := v.play(adv).G
		if !graph.BallStatic(prev, g, protectedNode, alpha) {
			t.Fatalf("round %d: protected %d-ball changed", r, alpha)
		}
		if !g.Equal(prev) {
			changedElsewhere = true
		}
		prev = g
	}
	if !changedElsewhere {
		t.Fatal("inner churn had no effect at all (freeze too broad?)")
	}
}

func TestLocalStaticWakesFrozenZoneFirst(t *testing.T) {
	base := graph.Path(6)
	adv := &LocalStatic{
		Inner:     Static{G: base},
		Base:      base,
		Protected: []graph.NodeID{0},
		Alpha:     1,
	}
	v := newFakeView(6)
	st := v.play(adv)
	wakeSet := make(map[graph.NodeID]bool)
	for _, w := range st.Wake {
		wakeSet[w] = true
	}
	if !wakeSet[0] || !wakeSet[1] {
		t.Fatalf("frozen zone not woken in round 1: %v", st.Wake)
	}
}

func TestConflictInjectorTargetsEqualOutputs(t *testing.T) {
	base := graph.Empty(6)
	adv := &ConflictInjector{Inner: Static{G: base}, Rate: 4, MinRound: 2, Seed: 3}
	v := newFakeView(6)
	v.play(adv) // round 1: no delayed outputs yet
	// Outputs: nodes 0,1,2 share color 5; nodes 3,4 share color 9.
	v.delayed = []problems.Value{5, 5, 5, 9, 9, problems.Bot}
	st := v.play(adv)
	if st.G.M() == 0 {
		t.Fatal("no conflict edges injected")
	}
	st.G.EachEdge(func(x, y graph.NodeID) {
		if v.delayed[x] != v.delayed[y] || v.delayed[x] == problems.Bot {
			t.Fatalf("injected edge {%d,%d} between different outputs", x, y)
		}
	})
	if len(adv.Injections) != st.G.M() {
		t.Fatalf("injection log has %d entries for %d edges", len(adv.Injections), st.G.M())
	}
	// Injected edges persist.
	prevM := st.G.M()
	v.delayed = []problems.Value{1, 2, 3, 4, 6, 7} // no duplicates now
	st = v.play(adv)
	if st.G.M() != prevM {
		t.Fatalf("injected edges did not persist: %d -> %d", prevM, st.G.M())
	}
}

// TestConflictInjectorDeterministic pins the fix for a real same-seed
// nondeterminism bug: candidate groups used to be collected by ranging
// over a map, so the PRF draws indexed a differently-ordered slice on
// every run. Two fresh injectors with the same seed and view sequence
// must log identical injections. Several duplicate-output groups per
// round keep the (now sorted) candidate ordering load-bearing.
func TestConflictInjectorDeterministic(t *testing.T) {
	run := func() []Injection {
		adv := &ConflictInjector{Inner: Static{G: graph.Empty(12)}, Rate: 6, MinRound: 1, Seed: 11}
		v := newFakeView(12)
		for r := 0; r < 4; r++ {
			v.delayed = []problems.Value{5, 5, 5, 9, 9, 9, 2, 2, 7, 7, 7, problems.Bot}
			if r%2 == 1 {
				v.delayed = []problems.Value{1, 1, 4, 4, 4, 4, 8, 8, 8, 3, 3, 3}
			}
			v.play(adv)
		}
		return adv.Injections
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no injections logged; test exercises nothing")
	}
	if !slices.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n  %v\nvs\n  %v", a, b)
	}
}

func TestConflictInjectorSkipsSleepingNodes(t *testing.T) {
	base := graph.Empty(4)
	adv := &ConflictInjector{Inner: Static{G: base}, Rate: 8, MinRound: 1, Seed: 5}
	v := newFakeView(4)
	v.awake = []bool{true, false, true, false}
	v.delayed = []problems.Value{5, 5, 5, 5}
	st := v.play(adv)
	st.G.EachEdge(func(x, y graph.NodeID) {
		if !v.awake[x] || !v.awake[y] {
			t.Fatalf("edge {%d,%d} touches sleeping node", x, y)
		}
	})
}

func TestWakeupSchedule(t *testing.T) {
	inner := Static{G: graph.Complete(6)}
	sched := StaggeredSchedule(6, 2) // wake {0,1} r1, {2,3} r2, {4,5} r3
	adv := &Wakeup{Inner: inner, Schedule: sched}
	v := newFakeView(6)
	st := v.play(adv)
	if len(st.Wake) != 2 || st.Wake[0] != 0 || st.Wake[1] != 1 {
		t.Fatalf("round 1 wake = %v", st.Wake)
	}
	if st.G.M() != 1 { // only {0,1} possible
		t.Fatalf("round 1 edges = %d, want 1", st.G.M())
	}
	st = v.play(adv)
	if st.G.M() != 6 { // K4 among {0,1,2,3}
		t.Fatalf("round 2 edges = %d, want 6", st.G.M())
	}
	st = v.play(adv)
	if st.G.M() != 15 { // K6
		t.Fatalf("round 3 edges = %d, want 15", st.G.M())
	}
}

func TestUniformRandomScheduleBounds(t *testing.T) {
	sched := UniformRandomSchedule(100, 7, 3)
	for v, r := range sched {
		if r < 1 || r > 7 {
			t.Fatalf("node %d scheduled at %d", v, r)
		}
	}
	// Not all in the same round (overwhelmingly likely).
	same := true
	for _, r := range sched[1:] {
		if r != sched[0] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("all nodes scheduled in one round")
	}
}

func TestLubyStallerDeletesWinnerEdges(t *testing.T) {
	const seed = 99
	base := graph.Complete(6)
	adv := &LubyStaller{Base: base, Seed: seed, Purpose: prf.PurposeLubyAlpha}
	v := newFakeView(6)
	st := v.play(adv)
	// Round 1: all nodes undecided. The α-minimum over all nodes is a
	// winner; in K6 the fixpoint deletes edges until no undecided node
	// has an undecided neighbor over which it is minimal. In a clique the
	// global minimum is the only winner each iteration, so iterations
	// peel minima one by one: all edges end up deleted.
	if st.G.M() != 0 {
		t.Fatalf("round 1 on K6: %d edges survive, want 0 (cascading minima)", st.G.M())
	}
	if adv.Deleted != base.M() {
		t.Fatalf("Deleted = %d, want %d", adv.Deleted, base.M())
	}
}

func TestLubyStallerLeavesDecidedAlone(t *testing.T) {
	base := graph.Path(4)
	adv := &LubyStaller{Base: base, Seed: 1, Purpose: prf.PurposeLubyAlpha}
	v := newFakeView(4)
	// All nodes decided: no undecided-undecided edges, nothing to delete.
	v.delayed = []problems.Value{problems.InMIS, problems.Dominated, problems.InMIS, problems.Dominated}
	st := v.play(adv)
	if st.G.M() != base.M() {
		t.Fatalf("edges deleted despite all nodes decided: %d vs %d", st.G.M(), base.M())
	}
}

func TestAllNodes(t *testing.T) {
	all := AllNodes(4)
	if len(all) != 4 || all[0] != 0 || all[3] != 3 {
		t.Fatalf("AllNodes = %v", all)
	}
}

// contractCase is one adversary under the step contract, with an
// independently built reference for the topology it must fold to.
type contractCase struct {
	adv Adversary
	// ref returns the edge set G_r of round r, built without the
	// adversary's diff logic.
	ref func(r int) []graph.EdgeKey
	// delayed, if set, supplies the delayed outputs of round r.
	delayed func(r int) []problems.Value
}

// burnt reports whether the staller has burned base edge k.
func (a *LubyStaller) burnt(k graph.EdgeKey) bool {
	i, ok := slices.BinarySearch(a.Base.EdgeKeys(), k)
	return ok && a.removed[i]
}

// keysWhere returns the keys of g for which keep holds, ascending.
func keysWhere(g *graph.Graph, keep func(k graph.EdgeKey) bool) []graph.EdgeKey {
	var out []graph.EdgeKey
	for _, k := range g.EdgeKeys() {
		if keep(k) {
			out = append(out, k)
		}
	}
	return out
}

// churnKeys is the live edge set a Churn holds.
func churnKeys(c *Churn) []graph.EdgeKey {
	return graph.FromEdges(c.Base.N(), c.keys).EdgeKeys()
}

// scriptedGraphs returns a Graphs adapter replaying gs (the last graph
// persists) with all nodes woken in round 1.
func scriptedGraphs(n int, gs []*graph.Graph) *Graphs {
	return &Graphs{Next: func(v View) (*graph.Graph, []graph.NodeID) {
		var wake []graph.NodeID
		if v.Round() == 1 {
			wake = AllNodes(n)
		}
		return gs[min(v.Round(), len(gs))-1], wake
	}}
}

func edgeList(n int, pairs ...[2]graph.NodeID) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, p := range pairs {
		b.AddEdge(p[0], p[1])
	}
	return b.Graph()
}

// TestDeltaStepsAreExactDiffs drives every production adversary, the
// Graphs adapter and the wrappers over several inners, and checks the
// Step contract each round: diffs are strictly ascending, adds are absent
// from and removes present in the previous topology, added edges touch
// only woken nodes, and the folded topology equals a reference graph
// built independently of the adversary's diff logic.
func TestDeltaStepsAreExactDiffs(t *testing.T) {
	const n = 28
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 0.2, prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	gnps := func(seed uint64, rounds int) []*graph.Graph {
		s := prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
		gs := make([]*graph.Graph, rounds)
		for i := range gs {
			gs[i] = graph.GNP(n, 0.2, s)
		}
		return gs
	}
	// Schedule for the Wakeup cases: staggered over rounds 1..7, with
	// node 27 never waking.
	sched := UniformRandomSchedule(n, 7, 4)
	sched[n-1] = 0
	awakeBy := func(r int) func(graph.EdgeKey) bool {
		return func(k graph.EdgeKey) bool {
			x, y := k.Nodes()
			return sched[x] >= 1 && sched[x] <= r && sched[y] >= 1 && sched[y] <= r
		}
	}
	cases := map[string]func() contractCase{
		"churn": func() contractCase {
			c := &Churn{Base: mkBase(1), Add: 4, Del: 4, Seed: 5}
			return contractCase{adv: c, ref: func(int) []graph.EdgeKey { return churnKeys(c) }}
		},
		"edge-markov": func() contractCase {
			m := &EdgeMarkov{Footprint: mkBase(2), POn: 0.3, POff: 0.3, Seed: 6}
			return contractCase{adv: m, ref: func(int) []graph.EdgeKey {
				var on []graph.EdgeKey
				for i, k := range m.keys {
					if m.on[i] {
						on = append(on, k)
					}
				}
				return graph.FromEdges(n, on).EdgeKeys()
			}}
		},
		"p2p": func() contractCase {
			p := &P2PChurn{N: n, Init: 12, JoinPerRound: 2, Degree: 3, Seed: 3}
			return contractCase{adv: p, ref: func(int) []graph.EdgeKey {
				b := graph.NewBuilder(n)
				for x, row := range p.nbrs {
					for _, y := range row {
						b.AddEdge(x, y)
					}
				}
				return b.EdgeKeys()
			}}
		},
		"static": func() contractCase {
			g := mkBase(10)
			return contractCase{adv: Static{G: g}, ref: func(int) []graph.EdgeKey { return g.EdgeKeys() }}
		},
		"alternator": func() contractCase {
			a, b := mkBase(11), mkBase(12)
			return contractCase{
				adv: &Alternator{A: a, B: b, Period: 3},
				ref: func(r int) []graph.EdgeKey {
					if r <= 3 || (r >= 7 && r <= 9) {
						return a.EdgeKeys()
					}
					return b.EdgeKeys()
				},
			}
		},
		"graphs": func() contractCase {
			gs := gnps(13, 12)
			return contractCase{adv: scriptedGraphs(n, gs), ref: func(r int) []graph.EdgeKey { return gs[r-1].EdgeKeys() }}
		},
		"luby-staller": func() contractCase {
			base := mkBase(14)
			a := &LubyStaller{Base: base, Seed: 8, Purpose: prf.PurposeLubyAlpha}
			return contractCase{
				adv: a,
				ref: func(int) []graph.EdgeKey {
					return keysWhere(base, func(k graph.EdgeKey) bool { return !a.burnt(k) })
				},
				// A growing undecided prefix makes every round burn
				// fresh edges.
				delayed: func(r int) []problems.Value {
					out := make([]problems.Value, n)
					for v := range out {
						out[v] = problems.InMIS
						if v < 2*r+2 {
							out[v] = problems.Bot
						}
					}
					return out
				},
			}
		},
		"local-static": func() contractCase {
			base := mkBase(3)
			inner := &Churn{Base: base, Add: 6, Del: 6, Seed: 7}
			l := &LocalStatic{Inner: inner, Base: base, Protected: []graph.NodeID{2, 20}, Alpha: 2}
			return contractCase{adv: l, ref: func(int) []graph.EdgeKey {
				frozen := func(k graph.EdgeKey) bool { x, y := k.Nodes(); return l.frozen[x] || l.frozen[y] }
				keys := keysWhere(base, frozen)
				for _, k := range churnKeys(inner) {
					if !frozen(k) {
						keys = append(keys, k)
					}
				}
				return graph.FromEdges(n, keys).EdgeKeys()
			}}
		},
		"local-static-over-luby": func() contractCase {
			base := mkBase(4)
			inner := &LubyStaller{Base: base, Seed: 8, Purpose: prf.PurposeLubyAlpha}
			l := &LocalStatic{Inner: inner, Base: base, Protected: []graph.NodeID{1}, Alpha: 1}
			return contractCase{adv: l, ref: func(int) []graph.EdgeKey {
				return keysWhere(base, func(k graph.EdgeKey) bool {
					x, y := k.Nodes()
					return l.frozen[x] || l.frozen[y] || !inner.burnt(k)
				})
			}}
		},
		"wakeup-over-static": func() contractCase {
			g := mkBase(15)
			return contractCase{
				adv: &Wakeup{Inner: Static{G: g}, Schedule: sched},
				ref: func(r int) []graph.EdgeKey { return keysWhere(g, awakeBy(r)) },
			}
		},
		"wakeup-over-churn": func() contractCase {
			inner := &Churn{Base: mkBase(16), Add: 5, Del: 5, Seed: 9}
			return contractCase{
				adv: &Wakeup{Inner: inner, Schedule: sched},
				ref: func(r int) []graph.EdgeKey {
					return keysWhere(graph.FromEdges(n, inner.keys), awakeBy(r))
				},
			}
		},
		"scripted": func() contractCase {
			tr := dyngraph.NewTrace(n)
			gs := gnps(9, 6)
			var prev *graph.Graph
			for r, g := range gs {
				var wake []graph.NodeID
				if r == 0 {
					wake = AllNodes(n)
				}
				tr.Append(prev, g, wake)
				prev = g
			}
			return contractCase{adv: NewScripted(tr), ref: func(r int) []graph.EdgeKey { return gs[min(r, len(gs))-1].EdgeKeys() }}
		},
		"scripted-stream": func() contractCase {
			gs := gnps(17, 6)
			var buf bytes.Buffer
			enc, err := dyngraph.NewStreamEncoder(&buf, n, len(gs))
			if err != nil {
				t.Fatal(err)
			}
			var prev []graph.EdgeKey
			for r, g := range gs {
				var wake []graph.NodeID
				if r == 0 {
					wake = AllNodes(n)
				}
				adds, removes := graph.DiffSortedKeys(prev, g.EdgeKeys(), nil, nil)
				if err := enc.WriteRound(wake, adds, removes); err != nil {
					t.Fatal(err)
				}
				prev = g.EdgeKeys()
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			dec, err := dyngraph.NewStreamDecoder(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return contractCase{adv: NewScriptedStream(dec), ref: func(r int) []graph.EdgeKey { return gs[min(r, len(gs))-1].EdgeKeys() }}
		},
		"conflict-injector": func() contractCase {
			inner := &Churn{Base: mkBase(18), Add: 6, Del: 6, Seed: 10}
			ci := &ConflictInjector{Inner: inner, Rate: 4, MinRound: 2, Seed: 11}
			return contractCase{
				adv: ci,
				ref: func(int) []graph.EdgeKey {
					keys := slices.Clone(inner.keys)
					for _, inj := range ci.Injections {
						keys = append(keys, inj.Edge)
					}
					return graph.FromEdges(n, keys).EdgeKeys()
				},
				// Four output classes keep injections coming.
				delayed: func(r int) []problems.Value {
					out := make([]problems.Value, n)
					for v := range out {
						out[v] = problems.Value(1 + (v+r)%4)
					}
					return out
				},
			}
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			checkStepContract(t, n, 12, mk())
		})
	}
}

// checkStepContract plays c.adv for the given rounds and checks the Step
// contract and the reference topology every round.
func checkStepContract(t *testing.T, n, rounds int, c contractCase) {
	t.Helper()
	v := newFakeView(n)
	present := make(map[graph.EdgeKey]bool)
	woken := make([]bool, n)
	for r := 1; r <= rounds; r++ {
		if c.delayed != nil {
			v.delayed = c.delayed(r)
		}
		st := v.play(c.adv)
		for _, id := range st.Wake {
			woken[id] = true
		}
		for i, k := range st.EdgeAdds {
			if i > 0 && st.EdgeAdds[i-1] >= k {
				t.Fatalf("round %d: adds not strictly ascending", r)
			}
			if present[k] {
				t.Fatalf("round %d: add of present edge %v", r, k)
			}
			if x, y := k.Nodes(); !woken[x] || !woken[y] {
				t.Fatalf("round %d: added edge %v touches a sleeping node", r, k)
			}
			present[k] = true
		}
		for i, k := range st.EdgeRemoves {
			if i > 0 && st.EdgeRemoves[i-1] >= k {
				t.Fatalf("round %d: removes not strictly ascending", r)
			}
			if !present[k] {
				t.Fatalf("round %d: remove of absent edge %v", r, k)
			}
			delete(present, k)
		}
		want := c.ref(r)
		if got := st.G.EdgeKeys(); !slices.Equal(got, want) {
			t.Fatalf("round %d: folded topology %v, reference %v", r, got, want)
		}
	}
}

// TestWakeupEdgeTiming pins the two wake-time corners on a hand-written
// inner sequence: an edge whose second endpoint wakes later appears in
// that endpoint's wake round, and an inner edge removed in the round its
// endpoint wakes never appears at all.
func TestWakeupEdgeTiming(t *testing.T) {
	const n = 6
	gs := []*graph.Graph{
		edgeList(n, [2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 2}, [2]graph.NodeID{1, 3}, [2]graph.NodeID{2, 3}),
		// Round 2: node 3 wakes as {1,3} goes away.
		edgeList(n, [2]graph.NodeID{0, 1}, [2]graph.NodeID{0, 2}, [2]graph.NodeID{2, 3}),
		// Round 3: node 2 wakes as {0,2} goes away; {2,3} waited for it;
		// {3,4} is added as node 4 wakes.
		edgeList(n, [2]graph.NodeID{0, 1}, [2]graph.NodeID{2, 3}, [2]graph.NodeID{3, 4}),
		// Round 4: node 5 never wakes, so {4,5} stays suppressed.
		edgeList(n, [2]graph.NodeID{0, 1}, [2]graph.NodeID{2, 3}, [2]graph.NodeID{4, 5}),
	}
	sched := []int{1, 1, 3, 2, 3, 0}
	want := [][]graph.EdgeKey{
		{graph.MakeEdgeKey(0, 1)},
		{graph.MakeEdgeKey(0, 1)},
		{graph.MakeEdgeKey(0, 1), graph.MakeEdgeKey(2, 3), graph.MakeEdgeKey(3, 4)},
		{graph.MakeEdgeKey(0, 1), graph.MakeEdgeKey(2, 3)},
	}
	checkStepContract(t, n, len(want), contractCase{
		adv: &Wakeup{Inner: scriptedGraphs(n, gs), Schedule: sched},
		ref: func(r int) []graph.EdgeKey { return want[r-1] },
	})
}

// TestConflictInjectorOverChangingInner drives the injector over an inner
// that removes an edge the injector then injects in the same round, and
// later adds and removes that injected edge again: the played topology
// must stay inner ∪ injected throughout.
func TestConflictInjectorOverChangingInner(t *testing.T) {
	const n = 5
	full := graph.Complete(n)
	without01 := graph.Difference(full, edgeList(n, [2]graph.NodeID{0, 1}))
	gs := []*graph.Graph{full, without01, full, without01, without01}
	inner := scriptedGraphs(n, gs)
	ci := &ConflictInjector{Inner: inner, Rate: 30, MinRound: 2, Seed: 3}
	k01 := graph.MakeEdgeKey(0, 1)
	checkStepContract(t, n, 6, contractCase{
		adv:     ci,
		delayed: func(r int) []problems.Value { return []problems.Value{5, 5, 5, 5, 5} },
		ref: func(r int) []graph.EdgeKey {
			keys := gs[min(r, len(gs))-1].AppendEdges(nil)
			for _, inj := range ci.Injections {
				keys = append(keys, inj.Edge)
			}
			return graph.FromEdges(n, keys).EdgeKeys()
		},
	})
	if len(ci.Injections) != 1 || ci.Injections[0] != (Injection{Round: 2, Edge: k01}) {
		t.Fatalf("injections %v, want {0,1} injected in round 2 as the inner removes it", ci.Injections)
	}
}

// TestScriptedDeltaNativePersistsFinalTopology pins the post-trace
// behavior of scripts: empty diffs keep the last graph.
func TestScriptedDeltaNativePersistsFinalTopology(t *testing.T) {
	const n = 8
	tr := dyngraph.NewTrace(n)
	g1 := graph.Path(n)
	tr.Append(nil, g1, AllNodes(n))
	adv := NewScripted(tr)
	v := newFakeView(n)
	if st := v.play(adv); !st.G.Equal(g1) {
		t.Fatal("round 1 mismatch")
	}
	for r := 2; r <= 4; r++ {
		st := v.play(adv)
		if !st.G.Equal(g1) {
			t.Fatalf("round %d: final topology not persisted", r)
		}
		if len(st.EdgeAdds) != 0 || len(st.EdgeRemoves) != 0 {
			t.Fatalf("round %d: post-trace diffs not empty", r)
		}
	}
}
