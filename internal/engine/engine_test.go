package engine

import (
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// floodAlgo outputs the maximum node id heard so far (including its own),
// exercising multi-round state propagation.
type floodAlgo struct{}

func (floodAlgo) Name() string { return "flood-max" }

func (floodAlgo) NewNode(v graph.NodeID) NodeProc { return &floodNode{id: v, best: int64(v)} }

type floodNode struct {
	id   graph.NodeID
	best int64
}

func (f *floodNode) Start(ctx *Ctx, input problems.Value) {
	if input != problems.Bot {
		f.best = int64(input)
	}
}

func (f *floodNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	return append(buf, SubMsg{Kind: 1, A: f.best})
}

func (f *floodNode) Process(ctx *Ctx, in []Incoming, deg int) {
	for _, m := range in {
		if m.M.A > f.best {
			f.best = m.M.A
		}
	}
}

func (f *floodNode) Output() problems.Value { return problems.Value(f.best) }

// degreeAlgo outputs 1 + its round degree, exercising deg delivery.
type degreeAlgo struct{}

func (degreeAlgo) Name() string                  { return "degree" }
func (degreeAlgo) NewNode(graph.NodeID) NodeProc { return &degreeNode{} }

type degreeNode struct{ out problems.Value }

func (d *degreeNode) Start(*Ctx, problems.Value)            {}
func (d *degreeNode) Broadcast(_ *Ctx, b []SubMsg) []SubMsg { return append(b, SubMsg{Kind: 2}) }
func (d *degreeNode) Process(_ *Ctx, in []Incoming, deg int) {
	if len(in) != deg {
		panic("inbox size != degree for all-broadcast algorithm")
	}
	d.out = problems.Value(deg + 1)
}
func (d *degreeNode) Output() problems.Value { return d.out }

// sizedAlgo declares 7 bits per message.
type sizedAlgo struct{ degreeAlgo }

func (sizedAlgo) MessageBits(SubMsg) int { return 7 }

// roundAlgo outputs the number of rounds it has been awake.
type roundAlgo struct{}

func (roundAlgo) Name() string                  { return "age" }
func (roundAlgo) NewNode(graph.NodeID) NodeProc { return &roundNode{} }

type roundNode struct{ age int64 }

func (a *roundNode) Start(*Ctx, problems.Value)            {}
func (a *roundNode) Broadcast(_ *Ctx, b []SubMsg) []SubMsg { return b }
func (a *roundNode) Process(*Ctx, []Incoming, int)         { a.age++ }
func (a *roundNode) Output() problems.Value                { return problems.Value(a.age) }

func TestFloodConvergesToMaxID(t *testing.T) {
	const n = 16
	e := New(Config{N: n, Seed: 1}, adversary.Static{G: graph.Path(n)}, floodAlgo{})
	// Path diameter n-1: after n rounds everyone knows the max.
	e.Run(n)
	for v, out := range e.Outputs() {
		if out != problems.Value(n-1) {
			t.Fatalf("node %d output %d, want %d", v, out, n-1)
		}
	}
}

func TestDegreeDelivery(t *testing.T) {
	g := graph.Star(5)
	e := New(Config{N: 5, Seed: 2}, adversary.Static{G: g}, degreeAlgo{})
	info := e.Step()
	if info.Outputs[0] != 5 { // center degree 4 + 1
		t.Fatalf("center output %d", info.Outputs[0])
	}
	for v := 1; v < 5; v++ {
		if info.Outputs[v] != 2 {
			t.Fatalf("leaf %d output %d", v, info.Outputs[v])
		}
	}
	if info.Messages != 2*g.M() {
		t.Fatalf("messages = %d, want %d", info.Messages, 2*g.M())
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 2048 // above serialThreshold so sharding actually engages
	run := func(workers int) []problems.Value {
		s := prf.NewStream(7, 0, 0, prf.PurposeWorkload)
		base := graph.GNP(n, 4.0/n, s)
		adv := &adversary.Churn{Base: base, Add: 16, Del: 16, Seed: 3}
		e := New(Config{N: n, Seed: 99, Workers: workers}, adv, floodAlgo{})
		e.Run(12)
		return e.Outputs()
	}
	a := run(1)
	b := run(4)
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d: workers=1 -> %d, workers=4 -> %d", v, a[v], b[v])
		}
	}
}

func TestWakeupAndInputs(t *testing.T) {
	const n = 6
	sched := adversary.StaggeredSchedule(n, 2)
	adv := &adversary.Wakeup{Inner: adversary.Static{G: graph.Complete(n)}, Schedule: sched}
	input := make([]problems.Value, n)
	for v := range input {
		input[v] = problems.Value(100 + v)
	}
	e := New(Config{N: n, Seed: 5, Input: input}, adv, floodAlgo{})
	info := e.Step() // round 1: nodes 0,1 awake
	if e.Awake(2) || !e.Awake(0) {
		t.Fatal("wake state wrong after round 1")
	}
	// Sleeping nodes output Bot.
	if info.Outputs[4] != problems.Bot {
		t.Fatalf("sleeping node output %d", info.Outputs[4])
	}
	// Awake nodes flooded their inputs: max(100, 101) = 101.
	if info.Outputs[0] != 101 || info.Outputs[1] != 101 {
		t.Fatalf("awake outputs = %d, %d", info.Outputs[0], info.Outputs[1])
	}
	e.Run(5)
	for v, out := range e.Outputs() {
		if out != 105 {
			t.Fatalf("node %d final output %d, want 105", v, out)
		}
	}
}

func TestAdversaryViewLag(t *testing.T) {
	const n = 4
	var lagSeen []problems.Value
	probe := adversaryFunc(func(v adversary.View) adversary.Step {
		var st adversary.Step
		if v.Round() == 1 {
			st.Wake = adversary.AllNodes(n)
		}
		if d := v.DelayedOutputs(); d != nil {
			lagSeen = append(lagSeen, d[0])
		} else {
			lagSeen = append(lagSeen, -1)
		}
		return st
	})
	e := New(Config{N: n, Seed: 8, OutputLag: 2}, probe, roundAlgo{})
	e.Run(5)
	// roundAlgo outputs its age; at view of round r the adversary must see
	// the snapshot of round r-2: rounds 1,2 -> nil; round 3 -> age 1; ...
	want := []problems.Value{-1, -1, 1, 2, 3}
	for i, w := range want {
		if lagSeen[i] != w {
			t.Fatalf("round %d: delayed view %v, want %v (all: %v)", i+1, lagSeen[i], w, lagSeen)
		}
	}
}

func TestFullyAdaptiveLag(t *testing.T) {
	const n = 2
	var lagSeen []problems.Value
	probe := adversaryFunc(func(v adversary.View) adversary.Step {
		var st adversary.Step
		if v.Round() == 1 {
			st.Wake = adversary.AllNodes(n)
		}
		if d := v.DelayedOutputs(); d != nil {
			lagSeen = append(lagSeen, d[0])
		} else {
			lagSeen = append(lagSeen, -1)
		}
		return st
	})
	e := New(Config{N: n, Seed: 8, OutputLag: 1}, probe, roundAlgo{})
	e.Run(3)
	want := []problems.Value{-1, 1, 2}
	for i, w := range want {
		if lagSeen[i] != w {
			t.Fatalf("adaptive round %d: saw %v want %v", i+1, lagSeen[i], w)
		}
	}
}

func TestBitAccounting(t *testing.T) {
	g := graph.Cycle(6)
	e := New(Config{N: 6, Seed: 3}, adversary.Static{G: g}, sizedAlgo{})
	info := e.Step()
	if info.Bits != int64(7*info.Messages) {
		t.Fatalf("bits = %d for %d messages", info.Bits, info.Messages)
	}
	// Without a BitSizer, bits stay 0.
	e2 := New(Config{N: 6, Seed: 3}, adversary.Static{G: g}, degreeAlgo{})
	if info := e2.Step(); info.Bits != 0 {
		t.Fatalf("bits = %d without sizer", info.Bits)
	}
}

func TestRunUntil(t *testing.T) {
	const n = 10
	e := New(Config{N: n, Seed: 1}, adversary.Static{G: graph.Path(n)}, floodAlgo{})
	round, ok := e.RunUntil(100, func(info *RoundInfo) bool {
		return info.Outputs[0] == problems.Value(n-1)
	})
	if !ok || round != n-1 {
		t.Fatalf("RunUntil = (%d, %v), want (%d, true)", round, ok, n-1)
	}
	// Predicate never true: returns (maxRounds, false).
	e2 := New(Config{N: n, Seed: 1}, adversary.Static{G: graph.Empty(n)}, floodAlgo{})
	round, ok = e2.RunUntil(5, func(*RoundInfo) bool { return false })
	if ok || round != 5 {
		t.Fatalf("RunUntil = (%d, %v), want (5, false)", round, ok)
	}
}

func TestObserversSeeEveryRound(t *testing.T) {
	const n = 5
	var rounds []int
	e := New(Config{N: n, Seed: 1}, adversary.Static{G: graph.Cycle(n)}, degreeAlgo{})
	e.OnRound(func(info *RoundInfo) { rounds = append(rounds, info.Round) })
	e.Run(4)
	if len(rounds) != 4 || rounds[0] != 1 || rounds[3] != 4 {
		t.Fatalf("observer rounds = %v", rounds)
	}
}

func TestEnginePanicsOnSleepingEdge(t *testing.T) {
	bad := adversaryFunc(func(v adversary.View) adversary.Step {
		// Edge between 0 and 1, but only 0 is awake.
		return adversary.Step{
			EdgeAdds: []graph.EdgeKey{graph.MakeEdgeKey(0, 1)},
			Wake:     []graph.NodeID{0},
		}
	})
	e := New(Config{N: 3, Seed: 1}, bad, degreeAlgo{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for edge touching sleeping node")
		}
	}()
	e.Step()
}

// TestEnginePanicsOnAddedAndRemovedEdge feeds the engine a round-2 diff
// listing {0,1} in both lists, once absent before the round (a phantom:
// an add-then-remove fold would accept it) and once present (the
// mirror). The engine must refuse both at the adversary seat, naming the
// round and the edge.
func TestEnginePanicsOnAddedAndRemovedEdge(t *testing.T) {
	k := graph.MakeEdgeKey(0, 1)
	for _, tc := range []struct {
		name   string
		round1 []graph.EdgeKey
	}{
		{"phantom", nil},
		{"mirror", []graph.EdgeKey{k}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectRound2Panic(t, tc.round1, []graph.EdgeKey{k}, []graph.EdgeKey{k},
				"engine: round 2 lists edge {0,1} as both added and removed")
		})
	}
}

// TestEnginePanicsOnBadDiff feeds the engine round-2 diffs that break the
// edge-diff contract after round 1 added {0,1} with nodes 0–2 awake. Each
// must panic with graph.CheckDiff's wording behind the round.
func TestEnginePanicsOnBadDiff(t *testing.T) {
	k := graph.MakeEdgeKey
	for _, tc := range []struct {
		name          string
		adds, removes []graph.EdgeKey
		want          string
	}{
		{"adds-unsorted", []graph.EdgeKey{k(1, 2), k(0, 2)}, nil,
			"engine: round 2 adds not strictly ascending at {0,2}"},
		{"out-of-universe", []graph.EdgeKey{k(1, 5)}, nil,
			"engine: round 2 adds edge {1,5} outside universe [0,3)"},
		{"non-canonical", []graph.EdgeKey{graph.EdgeKey(2<<32 | 1)}, nil,
			"engine: round 2 adds key {2,1}, which is not a canonical edge"},
		{"add-present", []graph.EdgeKey{k(0, 1)}, nil,
			"engine: round 2 adds edge {0,1}, which is present"},
		{"remove-absent", nil, []graph.EdgeKey{k(0, 2)},
			"engine: round 2 removes edge {0,2}, which is absent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expectRound2Panic(t, []graph.EdgeKey{k(0, 1)}, tc.adds, tc.removes, tc.want)
		})
	}
}

// expectRound2Panic runs a 3-node engine whose adversary wakes every node
// with round1 as the edges of round 1, then plays adds and removes in
// round 2, which must panic with want.
func expectRound2Panic(t *testing.T, round1, adds, removes []graph.EdgeKey, want string) {
	t.Helper()
	adv := adversaryFunc(func(v adversary.View) adversary.Step {
		if v.Round() == 1 {
			return adversary.Step{Wake: adversary.AllNodes(3), EdgeAdds: round1}
		}
		return adversary.Step{EdgeAdds: adds, EdgeRemoves: removes}
	})
	e := New(Config{N: 3, Seed: 1}, adv, degreeAlgo{})
	e.Step()
	defer func() {
		if msg := recover(); msg != want {
			t.Fatalf("panic %v, want %q", msg, want)
		}
	}()
	e.Step()
}

func TestEnginePanicsOnWrongGraphSize(t *testing.T) {
	bad := adversaryFunc(func(v adversary.View) adversary.Step {
		return adversary.Step{Wake: adversary.AllNodes(3), EdgeAdds: []graph.EdgeKey{graph.MakeEdgeKey(1, 6)}}
	})
	e := New(Config{N: 3, Seed: 1}, bad, degreeAlgo{})
	defer func() {
		if msg, want := recover(), "engine: round 1 adds edge {1,6} outside universe [0,3)"; msg != want {
			t.Fatalf("panic %v, want %q", msg, want)
		}
	}()
	e.Step()
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{N: 0, Seed: 1},
		{N: 4, Input: make([]problems.Value, 3)},
		{N: 4, OutputLag: -1},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg, adversary.Static{G: graph.Empty(4)}, degreeAlgo{})
		}()
	}
}

func TestCtxStreamPurposeSeparation(t *testing.T) {
	ctx := Ctx{Node: 3, Round: 5, Seed: 11, PurposeBase: 2 * prf.InstanceStride}
	s1 := ctx.Stream(prf.PurposeTentativeColor)
	base := Ctx{Node: 3, Round: 5, Seed: 11}
	s2 := base.Stream(prf.PurposeTentativeColor)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("purpose base did not separate streams")
	}
}

// adversaryFunc adapts a function to adversary.Adversary.
type adversaryFunc func(adversary.View) adversary.Step

func (f adversaryFunc) Step(v adversary.View) adversary.Step { return f(v) }

func BenchmarkEngineRoundStatic(b *testing.B) {
	const n = 4096
	s := prf.NewStream(1, 0, 0, prf.PurposeWorkload)
	g := graph.GNP(n, 8.0/n, s)
	e := New(Config{N: n, Seed: 2}, adversary.Static{G: g}, floodAlgo{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkEngineRoundSerial(b *testing.B) {
	const n = 4096
	s := prf.NewStream(1, 0, 0, prf.PurposeWorkload)
	g := graph.GNP(n, 8.0/n, s)
	e := New(Config{N: n, Seed: 2, Workers: 1}, adversary.Static{G: g}, floodAlgo{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
