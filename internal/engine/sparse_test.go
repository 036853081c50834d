package engine_test

// Sparse ≡ reference equivalence: the engine's sparse activity plane
// must be observably indistinguishable from RunReference, the dense walk
// of the model over every awake node — bit-identical outputs, changed
// feeds, topology deltas and message/bit accounting, every round, for
// every worker count. The matrix crosses the four adversary schedules
// used across the repo's tests, plus P2P session churn, with the two
// combined framework algorithms (never quiescent: exercises the pure
// active-set walk) and standalone DMis (terminally quiescent Dominated
// nodes: exercises the drop/grace/revival machinery). The -race CI job
// runs this file, so the sharded sparse phases are raced too.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// recordRun plays rounds on the engine and records each round the way
// RunReference returns it.
func recordRun(cfg engine.Config, adv adversary.Adversary, algo engine.Algorithm, rounds int) []engine.RefRound {
	e := engine.New(cfg, adv, algo)
	var tr []engine.RefRound
	e.OnRound(func(info *engine.RoundInfo) {
		tr = append(tr, engine.RefRound{
			Wake:        slices.Clone(info.Wake),
			Outputs:     slices.Clone(info.Outputs),
			Changed:     slices.Clone(info.Changed),
			EdgeAdds:    slices.Clone(info.EdgeAdds),
			EdgeRemoves: slices.Clone(info.EdgeRemoves),
			Messages:    info.Messages,
			Bits:        info.Bits,
		})
	})
	e.Run(rounds)
	return tr
}

// diffRounds fails t at the first round where the engine's run differs
// from the reference walk's.
func diffRounds(t *testing.T, label string, ref, got []engine.RefRound) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rounds, reference %d", label, len(got), len(ref))
	}
	for r := range ref {
		w, g := ref[r], got[r]
		if w.Messages != g.Messages || w.Bits != g.Bits {
			t.Fatalf("%s: round %d messages/bits %d/%d, reference %d/%d", label, r+1, g.Messages, g.Bits, w.Messages, w.Bits)
		}
		for v := range w.Outputs {
			if w.Outputs[v] != g.Outputs[v] {
				t.Fatalf("%s: round %d node %d output %d, reference %d", label, r+1, v, g.Outputs[v], w.Outputs[v])
			}
		}
		if !slices.Equal(w.Changed, g.Changed) {
			t.Fatalf("%s: round %d changed %v, reference %v", label, r+1, g.Changed, w.Changed)
		}
		if !slices.Equal(w.Wake, g.Wake) || !slices.Equal(w.EdgeAdds, g.EdgeAdds) || !slices.Equal(w.EdgeRemoves, g.EdgeRemoves) {
			t.Fatalf("%s: round %d wake set or edge diff differs from the reference", label, r+1)
		}
	}
}

// longestIsolation returns the most consecutive rounds any awake node
// spent without an edge in a recorded run.
func longestIsolation(n int, tr []engine.RefRound) int {
	awake := make([]bool, n)
	deg := make([]int, n)
	streak := make([]int, n)
	longest := 0
	for _, rd := range tr {
		for _, v := range rd.Wake {
			awake[v] = true
		}
		for _, k := range rd.EdgeAdds {
			u, v := k.Nodes()
			deg[u]++
			deg[v]++
		}
		for _, k := range rd.EdgeRemoves {
			u, v := k.Nodes()
			deg[u]--
			deg[v]--
		}
		for v := range n {
			if awake[v] && deg[v] == 0 {
				streak[v]++
			} else {
				streak[v] = 0
			}
			longest = max(longest, streak[v])
		}
	}
	return longest
}

func TestSparseMatchesDense(t *testing.T) {
	const n = 1024 // above the serial threshold: Workers=4 really shards
	const rounds = 20
	// The p2p schedule runs for more than twice MIS's window T1 (43 at
	// this n), and some peer must sit isolated for longer than T1.
	const p2pRounds = 100
	t1 := (&mis.DMisFactory{N: n}).WindowSize(n)
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 6.0/float64(n), prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	schedules := []struct {
		name   string
		rounds int // 0 means the default
		mk     func(seed uint64) adversary.Adversary
	}{
		{"churn", 0, func(seed uint64) adversary.Adversary {
			return &adversary.Churn{Base: mkBase(seed), Add: n / 24, Del: n / 24, Seed: seed + 1}
		}},
		{"edge-markov", 0, func(seed uint64) adversary.Adversary {
			return &adversary.EdgeMarkov{Footprint: mkBase(seed), POn: 0.3, POff: 0.3, Seed: seed + 1}
		}},
		{"local-static", 0, func(seed uint64) adversary.Adversary {
			base := mkBase(seed)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: seed + 1},
				Base:      base,
				Protected: []graph.NodeID{3, n / 2},
				Alpha:     2,
			}
		}},
		{"staggered-wake", 0, func(seed uint64) adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: mkBase(seed), Add: n / 24, Del: n / 24, Seed: seed + 1},
				Schedule: adversary.StaggeredSchedule(n, n/8),
			}
		}},
		// Short sessions and quick rejoins leave departed peers awake and
		// isolated, which sets Ctx.Isolated from each walk's own
		// adjacency. The run outlasts the combiners' window T1, so
		// settled isolated nodes park in the Concat combiner.
		{"p2p", p2pRounds, func(seed uint64) adversary.Adversary {
			return &adversary.P2PChurn{N: n, Init: 128, JoinPerRound: 4, SessionMin: 4, RejoinDelay: 2, Seed: seed + 1}
		}},
	}
	algos := []struct {
		name string
		mk   func() engine.Algorithm
	}{
		{"mis", func() engine.Algorithm { return mis.NewMIS(n) }},
		{"coloring", func() engine.Algorithm { return coloring.NewColoring(n) }},
		// Standalone DMis is the one algorithm with an engine.Quiescer:
		// confirmed Dominated nodes leave the active set, so this arm
		// proves dropped and revived nodes stay unobservable.
		{"dmis", func() engine.Algorithm { return mis.NewDynamic(n) }},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for si, sc := range schedules {
		rounds := cmp.Or(sc.rounds, rounds)
		for _, ac := range algos {
			t.Run(sc.name+"/"+ac.name, func(t *testing.T) {
				seed := uint64(31 + si)
				cfg := engine.Config{N: n, Seed: 77}
				ref := engine.RunReference(cfg, sc.mk(seed), ac.mk(), rounds)
				if sc.name == "p2p" {
					if got := longestIsolation(n, ref); got <= t1 {
						t.Fatalf("longest isolation %d rounds, want more than T1 = %d", got, t1)
					}
				}
				for _, w := range workerCounts {
					cfg.Workers = w
					diffRounds(t, fmt.Sprintf("workers=%d", w), ref, recordRun(cfg, sc.mk(seed), ac.mk(), rounds))
				}
			})
		}
	}
}

// qcAlgo decides instantly and is quiescent from its first output: each
// node's first Process sets output 1, then Broadcast stays empty and the
// output never changes. Per-node callback counters (node-owned, so safe
// under sharding) make the engine's drop behavior directly observable.
type qcAlgo struct{ calls []int32 }

func (a *qcAlgo) Name() string { return "qc" }
func (a *qcAlgo) NewNode(v graph.NodeID) engine.NodeProc {
	return &qcNode{calls: &a.calls[v]}
}

type qcNode struct {
	calls *int32
	out   problems.Value
}

func (p *qcNode) Start(*engine.Ctx, problems.Value) {}
func (p *qcNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return buf
}
func (p *qcNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	*p.calls++
	p.out = 1
}
func (p *qcNode) Output() problems.Value { return p.out }
func (p *qcNode) Quiescent() bool        { return p.out != problems.Bot }

// TestSparseQuiescentDropsAreFree pins the tentpole's point directly: on
// a static topology a terminally quiescent node stops getting callbacks
// the moment quiescence is detected — exactly 2 Process calls per node
// however long the run (the deciding round and the detection round; the
// grace rounds that fill the snapshot ring only copy its frozen value) —
// while its output stays exact in every later round.
func TestSparseQuiescentDropsAreFree(t *testing.T) {
	const n = 512
	const lag = 2
	g := graph.GNP(n, 8.0/float64(n), prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	algo := &qcAlgo{calls: make([]int32, n)}
	e := engine.New(engine.Config{N: n, Seed: 9, OutputLag: lag}, adversary.Static{G: g}, algo)
	var last *engine.RoundInfo
	//dynlint:ignore loancheck only the final round's header is read, after Run stops playing rounds, so its pooled ring slot is never recycled
	e.OnRound(func(info *engine.RoundInfo) { last = info })
	e.Run(40)
	for v := 0; v < n; v++ {
		// Round 1 decides (output change), round 2 detects quiescence;
		// the grace rounds filling the snapshot ring skip Process
		// entirely, then the node drops.
		if got, want := algo.calls[v], int32(2); got != want {
			t.Fatalf("node %d processed %d rounds, want %d (drop after grace)", v, got, want)
		}
		if last.Outputs[v] != 1 {
			t.Fatalf("node %d output %d after drop, want 1", v, last.Outputs[v])
		}
	}
	if last.Messages != 0 {
		t.Fatalf("steady-state round delivers %d messages, want 0", last.Messages)
	}
}

// steadyAlgo records, per round and node, what Ctx.Steady held in each
// callback: 1 in Process, 2 in Broadcast and 4 in Start.
type steadyAlgo struct{ seen [][]uint8 }

func (a *steadyAlgo) Name() string { return "steady-probe" }
func (a *steadyAlgo) NewNode(v graph.NodeID) engine.NodeProc {
	return &steadyNode{a: a, v: v}
}

type steadyNode struct {
	a *steadyAlgo
	v graph.NodeID
}

func (n *steadyNode) note(ctx *engine.Ctx, bit uint8) {
	if ctx.Steady {
		n.a.seen[ctx.Round][n.v] |= bit
	}
}

func (n *steadyNode) Start(ctx *engine.Ctx, _ problems.Value) { n.note(ctx, 4) }
func (n *steadyNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	n.note(ctx, 2)
	return append(buf, engine.SubMsg{Kind: 1})
}
func (n *steadyNode) Process(ctx *engine.Ctx, _ []engine.Incoming, _ int) { n.note(ctx, 1) }
func (n *steadyNode) Output() problems.Value                              { return problems.Bot }

// TestSteadyMarksUntouchedNodes pins Ctx.Steady: in every round, each
// awake node's Process sees it true exactly when no edge of the node is
// in the round's diff, and Start and Broadcast never see it set.
func TestSteadyMarksUntouchedNodes(t *testing.T) {
	const n, rounds = 96, 40
	base := graph.GNP(n, 4.0/n, prf.NewStream(5, 0, 0, prf.PurposeWorkload))
	advs := map[string]func() adversary.Adversary{
		"churn": func() adversary.Adversary { return &adversary.Churn{Base: base, Add: 3, Del: 3, Seed: 6} },
		"wakeup": func() adversary.Adversary {
			return &adversary.Wakeup{Inner: &adversary.Churn{Base: base, Add: 2, Del: 2, Seed: 7}, Schedule: adversary.StaggeredSchedule(n, 8)}
		},
	}
	for name, adv := range advs {
		for _, workers := range []int{1, 3} {
			a := &steadyAlgo{seen: make([][]uint8, rounds+1)}
			for r := range a.seen {
				a.seen[r] = make([]uint8, n)
			}
			e := engine.New(engine.Config{N: n, Seed: 1, Workers: workers}, adv(), a)
			awake := make([]bool, n)
			e.OnRound(func(info *engine.RoundInfo) {
				touched := make([]bool, n)
				for _, keys := range [][]graph.EdgeKey{info.EdgeAdds, info.EdgeRemoves} {
					for _, k := range keys {
						u, v := k.Nodes()
						touched[u], touched[v] = true, true
					}
				}
				for _, v := range info.Wake {
					awake[v] = true
				}
				for v, seen := range a.seen[info.Round] {
					if want := awake[v] && !touched[v]; seen&^1 != 0 || (seen == 1) != want {
						t.Fatalf("%s, %d workers: round %d node %d saw Steady in callbacks %03b, want it in Process only and %v there", name, workers, info.Round, v, seen, want)
					}
				}
			})
			e.Run(rounds)
		}
	}
}
