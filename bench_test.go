package dynlocal

// The bench harness regenerates every experiment of the evaluation
// (E01–E15, see ARCHITECTURE.md for the mapping to the paper's claims)
// under testing.B, and adds the ablation benches for the design choices
// the paper singles out: the incremental sliding-window maintenance, the
// desire-level floor of footnote 11, SMis's self-healing un-decide rule
// and the serial-vs-sharded engine phases.
//
// The experiment benches report headline numbers via b.ReportMetric so
// `go test -bench` output doubles as a compact evaluation summary.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/experiments"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/stats"
	"dynlocal/internal/verify"
	"dynlocal/internal/verify/verifytest"
)

func benchParams(i int) experiments.Params {
	return experiments.Params{Quick: true, Seed: uint64(i + 1)}
}

func BenchmarkE01DColorConvergence(b *testing.B) {
	var lastSlope float64
	for i := 0; i < b.N; i++ {
		res := experiments.E01DColorConvergence(benchParams(i))
		lastSlope = res.Fit.Slope
	}
	b.ReportMetric(lastSlope, "slope-log2n")
}

func BenchmarkE02ConflictResolution(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		res := experiments.E02ConflictResolution(benchParams(i))
		mean = res.ResolutionRounds.Mean
	}
	b.ReportMetric(mean, "resolve-rounds")
}

func BenchmarkE03LocalStability(b *testing.B) {
	var changes float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E03LocalStability(benchParams(i)) {
			changes += float64(r.ProtectedChanges)
		}
	}
	b.ReportMetric(changes, "protected-changes")
}

func BenchmarkE04ColoringProgress(b *testing.B) {
	var prob float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E04ColoringProgress(benchParams(i)) {
			prob = r.EmpiricalProb
		}
	}
	b.ReportMetric(prob, "P-colored-slow")
}

func BenchmarkE05MISEdgeDecay(b *testing.B) {
	var decay float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E05MISEdgeDecay(benchParams(i)) {
			decay = r.MeanDecay
		}
	}
	b.ReportMetric(decay, "decay-2r")
}

func BenchmarkE06DMisConvergence(b *testing.B) {
	b.Run("quick", func(b *testing.B) {
		var lastSlope float64
		for i := 0; i < b.N; i++ {
			res := experiments.E06DMisConvergence(benchParams(i))
			lastSlope = res.Fit.Slope
		}
		b.ReportMetric(lastSlope, "slope-log2n")
	})
	// Large-N end-to-end cell: one trial at N=4096 across the adversary
	// suite — the hot-path yardstick for graph-build and engine work.
	b.Run("N4096", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			p := experiments.Params{Quick: true, Seed: uint64(i + 1), NSweep: []int{4096}, Trials: 1}
			res := experiments.E06DMisConvergence(p)
			mean = res.Points[len(res.Points)-1].Rounds.Mean
		}
		b.ReportMetric(mean, "rounds")
	})
}

func BenchmarkE07SMisStaticBall(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		rs := experiments.E07SMisStaticBall(benchParams(i))
		mean = rs[len(rs)-1].DecideRounds.Mean
	}
	b.ReportMetric(mean, "decide-rounds")
}

func BenchmarkE08ConcatEndToEnd(b *testing.B) {
	b.Run("quick", func(b *testing.B) {
		var invalid float64
		for i := 0; i < b.N; i++ {
			for _, r := range experiments.E08ConcatEndToEnd(benchParams(i)) {
				invalid += float64(r.InvalidRounds)
			}
		}
		b.ReportMetric(invalid, "invalid-rounds")
	})
	// Large-N end-to-end: combined algorithms + T-dynamic checker at
	// N=4096 under all four adversaries.
	b.Run("N4096", func(b *testing.B) {
		var invalid float64
		for i := 0; i < b.N; i++ {
			p := experiments.Params{Quick: true, Seed: uint64(i + 1), N: 4096}
			for _, r := range experiments.E08ConcatEndToEnd(p) {
				invalid += float64(r.InvalidRounds)
			}
		}
		b.ReportMetric(invalid, "invalid-rounds")
	})
}

func BenchmarkE09Baselines(b *testing.B) {
	var worstBaseline float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E09Baselines(benchParams(i)) {
			if r.Algorithm == "greedy-repair" && r.InvalidFrac > worstBaseline {
				worstBaseline = r.InvalidFrac
			}
		}
	}
	b.ReportMetric(worstBaseline, "greedy-invalid-frac")
}

func BenchmarkE10WindowSweep(b *testing.B) {
	var smallT float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E10WindowSweep(benchParams(i)) {
			if r.Window == 4 {
				smallT = r.InvalidFrac
			}
		}
	}
	b.ReportMetric(smallT, "T4-invalid-frac")
}

func BenchmarkE11DeltaWindows(b *testing.B) {
	var unionEdges, interEdges float64
	for i := 0; i < b.N; i++ {
		rs := experiments.E11DeltaWindows(benchParams(i))
		unionEdges = rs[0].MeanEdges
		interEdges = rs[len(rs)-1].MeanEdges
	}
	b.ReportMetric(unionEdges, "union-edges")
	b.ReportMetric(interEdges, "inter-edges")
}

func BenchmarkE12MessageBits(b *testing.B) {
	var maxBits float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E12MessageBits(benchParams(i)) {
			if r.BitsPerMsg > maxBits {
				maxBits = r.BitsPerMsg
			}
		}
	}
	b.ReportMetric(maxBits, "max-bits/msg")
}

func BenchmarkE13Clairvoyant(b *testing.B) {
	var dominated float64
	for i := 0; i < b.N; i++ {
		res := experiments.E13Clairvoyant(benchParams(i))
		dominated = float64(res.ClairvoyantDominated)
	}
	b.ReportMetric(dominated, "clairvoyant-dominated")
}

func BenchmarkE14AsyncWakeup(b *testing.B) {
	var invalid float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E14AsyncWakeup(benchParams(i)) {
			invalid += float64(r.InvalidRounds)
		}
	}
	b.ReportMetric(invalid, "invalid-rounds")
}

func BenchmarkE15EngineScaling(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.E15EngineScaling(benchParams(i)) {
			if r.NodeRoundsSec > best {
				best = r.NodeRoundsSec
			}
		}
	}
	b.ReportMetric(best, "node-rounds/s")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationWindowIncremental measures the incremental sliding
// window against recomputing IntersectAll/UnionAll from the raw history
// each round (see ARCHITECTURE.md, "Sliding windows").
func BenchmarkAblationWindowIncremental(b *testing.B) {
	const n = 2048
	const T = 12
	s := prf.NewStream(1, 0, 0, prf.PurposeWorkload)
	graphs := make([]*graph.Graph, 32)
	for i := range graphs {
		graphs[i] = graph.GNP(n, 6.0/n, s)
	}
	// adds[i], removes[i] lead from graphs[i-1] (cyclically) to graphs[i].
	adds := make([][]graph.EdgeKey, len(graphs))
	removes := make([][]graph.EdgeKey, len(graphs))
	for i, g := range graphs {
		prev := graphs[(i+len(graphs)-1)%len(graphs)]
		adds[i], removes[i] = graph.DiffSortedKeys(prev.EdgeKeys(), g.EdgeKeys(), nil, nil)
	}
	b.Run("incremental", func(b *testing.B) {
		w := dyngraph.NewWindow(T, n)
		w.ObserveEdgeDelta(graphs[0].EdgeKeys(), nil, adversary.AllNodes(n))
		for i := 0; i < b.N; i++ {
			k := (i + 1) % len(graphs)
			w.ObserveEdgeDelta(adds[k], removes[k], nil)
			_ = w.IntersectionGraph()
			_ = w.UnionGraph()
		}
	})
	b.Run("recompute", func(b *testing.B) {
		var hist []*graph.Graph
		for i := 0; i < b.N; i++ {
			hist = append(hist, graphs[i%len(graphs)])
			lo := len(hist) - T
			if lo < 0 {
				lo = 0
			}
			win := hist[lo:]
			_ = graph.IntersectAll(win)
			_ = graph.UnionAll(win)
		}
	})
}

// BenchmarkAblationDesireFloor reproduces footnote 11 ("in the dynamic
// setting, we need to avoid that desire-levels can become arbitrarily
// small"). A pump adversary parades a fresh group of five high-desire
// nodes past the target every round for W rounds: the target's effective
// degree stays at 2.5 ≥ 2, so its desire level halves every round —
// down to 1/(5n) with the paper's floor, down to 2^-W without it. After
// the pump stops the target is isolated and must self-elect: recovery is
// O(log n) rounds of desire doubling with the floor, but Θ(W) without —
// the unfloored recovery time scales with the length of the dense phase.
func BenchmarkAblationDesireFloor(b *testing.B) {
	const groups = 80
	const n = 1 + 5*groups
	run := func(disable bool) float64 {
		f := &mis.SMisFactory{N: n, DisableDesireFloor: disable}
		algo := core.Single{Label: "smis", Factory: func(v graph.NodeID) core.NodeInstance {
			return f.NewNode(v)
		}}
		e := engine.New(engine.Config{N: n, Seed: 7}, &adversary.Graphs{Next: (&pumpAdversary{groups: groups}).next}, algo)
		e.Run(groups)
		recovered, _ := e.RunUntil(4*groups, func(info *engine.RoundInfo) bool {
			return info.Outputs[0] != problems.Bot
		})
		return float64(recovered - groups)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(with, "recovery-floored")
	b.ReportMetric(without, "recovery-unfloored")
}

// pumpAdversary starves node 0's desire level: round r wakes the five
// nodes of group r as a K5 attached to node 0 for exactly one round; old
// groups keep their internal edges (they decide among themselves) but
// lose contact with the target. After `groups` rounds the target is
// isolated.
type pumpAdversary struct {
	groups int
}

func (p *pumpAdversary) next(v adversary.View) (*graph.Graph, []graph.NodeID) {
	n := 1 + 5*p.groups
	b := graph.NewBuilder(n)
	r := v.Round()
	// Internal K5 edges of every group woken so far.
	limit := r
	if limit > p.groups {
		limit = p.groups
	}
	for g := 1; g <= limit; g++ {
		base := graph.NodeID(1 + 5*(g-1))
		for i := graph.NodeID(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	var wake []graph.NodeID
	if r == 1 {
		wake = append(wake, 0)
	}
	if r <= p.groups {
		base := graph.NodeID(1 + 5*(r-1))
		for i := graph.NodeID(0); i < 5; i++ {
			wake = append(wake, base+i)
			b.AddEdge(0, base+i)
		}
	}
	return b.Graph(), wake
}

// BenchmarkAblationSMisSelfHealing compares SMis (which un-decides on
// violation) against a frozen variant mimicking plain Ghaffari: the
// violation count under churn shows why network-static algorithms need
// the un-decide rule.
func BenchmarkAblationSMisSelfHealing(b *testing.B) {
	const n = 256
	base := GNP(n, 6.0/float64(n), 3)
	var healViol, frozenViol float64
	for i := 0; i < b.N; i++ {
		healViol = benchViolations(b, NewSMis(n), base, uint64(i))
		frozenViol = benchViolations(b, NewLuby(n), base, uint64(i))
	}
	b.ReportMetric(healViol, "selfheal-viol")
	b.ReportMetric(frozenViol, "frozen-viol")
}

func benchViolations(b *testing.B, algo Algorithm, base *Graph, seed uint64) float64 {
	b.Helper()
	n := base.N()
	adv := NewChurn(base, 8, 8, seed+1)
	e := NewEngine(EngineConfig{N: n, Seed: seed + 2}, adv, algo)
	viol := 0
	e.OnRound(func(info *RoundInfo) {
		if info.Round <= 30 {
			return
		}
		viol += len(problems.MIS().P.CheckPartial(info.Graph(), info.Outputs))
		viol += len(problems.MIS().C.CheckPartial(info.Graph(), info.Outputs))
	})
	e.Run(100)
	return float64(viol)
}

// BenchmarkEngineWorkers measures the engine's two-phase round under 1
// worker vs GOMAXPROCS workers at a size where sharding engages.
func BenchmarkEngineWorkers(b *testing.B) {
	const n = 8192
	s := prf.NewStream(1, 0, 0, prf.PurposeWorkload)
	g := graph.GNP(n, 8.0/n, s)
	for _, workers := range []int{1, 0} {
		name := "serial"
		if workers == 0 {
			name = "sharded"
		}
		b.Run(name, func(b *testing.B) {
			e := engine.New(engine.Config{N: n, Seed: 2, Workers: workers},
				adversary.Static{G: g}, mis.NewMIS(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkWorkerScaling is the worker-scaling matrix (recorded as
// BENCH_<date>-scaling.json via `BENCH=BenchmarkWorkerScaling
// LABEL=-scaling scripts/bench.sh`): Workers ∈ {1, 2, 4, 8} crossed with
// three workloads — uniform (static G(n,p)), star-skew (a star unioned
// with a sparse G(n,p): the degree skew that edge-balanced sharding
// exists for) and churn — at N=8192 running the combined MIS algorithm
// in steady state. On small CI boxes the higher worker counts just
// measure oversubscription; the matrix is meant for occasional manual
// runs on real multi-core hardware (see docs/benchmarking.md).
func BenchmarkWorkerScaling(b *testing.B) {
	const n = 8192
	workloads := []struct {
		name string
		mk   func() adversary.Adversary
	}{
		{"uniform", func() adversary.Adversary {
			return adversary.Static{G: GNP(n, 8.0/float64(n), 5)}
		}},
		{"star-skew", func() adversary.Adversary {
			return adversary.Static{G: graph.Union(graph.Star(n), GNP(n, 4.0/float64(n), 5))}
		}},
		{"churn", func() adversary.Adversary {
			return NewChurn(GNP(n, 8.0/float64(n), 5), 32, 32, 6)
		}},
	}
	for _, wl := range workloads {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, workers), func(b *testing.B) {
				e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: workers}, wl.mk(), NewMIS(n))
				e.Run(16) // reach steady state
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step()
				}
			})
		}
	}
}

// BenchmarkCombinedMISRound measures the steady-state cost of one full
// combined-algorithm round (T1-1 live instances) per node.
func BenchmarkCombinedMISRound(b *testing.B) {
	const n = 4096
	base := GNP(n, 8.0/float64(n), 5)
	adv := NewChurn(base, 32, 32, 6)
	e := NewEngine(EngineConfig{N: n, Seed: 7}, adv, NewMIS(n))
	e.Run(64) // reach steady state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(n), "nodes")
}

// BenchmarkCombinedColoringRound measures one round of combined coloring
// at one worker (N = 1024, Churn 8+8, T1 = 30) in two cells: steady,
// once every pipeline is full (after 2·T1 rounds), and late, after 40·T1
// rounds. Concat numbers its channels by instance age, so delivery's
// counting sort spans the same T1 channels in both cells and their times
// should agree; channels numbered by start round would make the late
// cell pay for a span that grows with the round number. Each cell builds
// its engine once and keeps stepping it across the benchmark's b.N
// calibration runs, so the warm-up is paid once per cell.
func BenchmarkCombinedColoringRound(b *testing.B) {
	const n = 1024
	cells := []struct {
		name    string
		windows int
	}{{"steady", 2}, {"late", 40}}
	for _, cell := range cells {
		var e *Engine
		b.Run(cell.name, func(b *testing.B) {
			if e == nil {
				algo := NewColoring(n)
				adv := NewChurn(GNP(n, 8.0/float64(n), 5), 8, 8, 6)
				e = NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, algo)
				e.Run(cell.windows * algo.T1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// BenchmarkCombinedMISFill measures combined MIS while its Concat
// pipelines fill. One op is rounds 1 to T1-2 of a fresh run under P2P
// session churn (N = 4096 ids, 1024 initial peers, 8 joins per round,
// T1 = 49) at one worker, so in every round each awake node adds an
// instance to its pipeline and none is recycled; engine construction is
// left out of the timing and the allocation counts. With -benchmem,
// allocs/op counts the pipelines' instance blocks and streak slices.
func BenchmarkCombinedMISFill(b *testing.B) {
	const n = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		algo := NewMIS(n)
		adv := &P2PChurnAdversary{N: n, Init: 1024, JoinPerRound: 8, Seed: 6}
		e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, algo)
		b.StartTimer()
		e.Run(algo.T1 - 2)
	}
}

// BenchmarkCombinedMISDeparted measures combined MIS under P2P session
// churn once most awake ids belong to departed peers, which keep their
// ids with no edges. One op is 8 rounds, from round 3·T1 of a fresh run
// (N = 4096 ids, 256 initial peers, 8 joins per round, T1 = 49) at one
// worker; building and warming the run is left out of the timing and
// the allocation counts. departed_frac reports the share of awake nodes
// that are isolated when the op starts. Concat parks a departed peer
// once its instances settle, so its rounds cost O(1) instead of SAlg
// plus T1-1 instances in both phases.
func BenchmarkCombinedMISDeparted(b *testing.B) {
	const n = 4096
	b.ReportAllocs()
	var departed float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		algo := NewMIS(n)
		adv := &P2PChurnAdversary{N: n, Init: 256, JoinPerRound: 8, Seed: 6}
		e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, algo)
		deg := make([]int, n)
		awake := 0
		e.OnRound(func(info *RoundInfo) {
			awake += len(info.Wake)
			for _, k := range info.EdgeAdds {
				u, v := k.Nodes()
				deg[u]++
				deg[v]++
			}
			for _, k := range info.EdgeRemoves {
				u, v := k.Nodes()
				deg[u]--
				deg[v]--
			}
		})
		e.Run(3 * algo.T1)
		isolated := 0
		for v := range n {
			if e.Awake(NodeID(v)) && deg[v] == 0 {
				isolated++
			}
		}
		departed += float64(isolated) / float64(awake)
		b.StartTimer()
		e.Run(8)
	}
	b.ReportMetric(departed/float64(b.N), "departed_frac")
}

// BenchmarkTDynamicChecker measures the verification overhead per round at
// N=4096 under steady churn, in two modes: the delta-fed checker driven by
// the full round-delta plane as the engine supplies it via RoundInfo.Delta
// — topology diff plus changed list, no graph at all (Feed, O(changes)
// per round) — and the materializing oracle of verifytest (per-round
// G^∩T/G^∪T rebuild from the window's edge lists + full CheckFull
// rescans). delta-feed-vs-oracle is the headline of the incremental
// verification pipeline.
func BenchmarkTDynamicChecker(b *testing.B) {
	const n = 4096
	const T = 16
	const cycle = 48
	base := GNP(n, 8.0/float64(n), 5)
	// Pre-generate a churned graph cycle (toggle 32 random node pairs per
	// round) and a drifting output schedule so both checkers process real
	// topology and output deltas every round without generator cost inside
	// the timed loop.
	s := prf.NewStream(17, 0, 0, prf.PurposeWorkload)
	graphs := make([]*graph.Graph, cycle)
	outs := make([][]problems.Value, cycle)
	bld := graph.NewBuilder(n)
	base.EachEdge(func(u, v graph.NodeID) { bld.AddEdge(u, v) })
	for i := range graphs {
		for j := 0; j < 32; j++ {
			u := graph.NodeID(s.Intn(n))
			v := graph.NodeID(s.Intn(n))
			if u == v {
				continue
			}
			if bld.HasEdge(u, v) {
				bld.RemoveEdge(u, v)
			} else {
				bld.AddEdge(u, v)
			}
		}
		graphs[i] = bld.Graph()
	}
	// Output schedule: a greedy coloring of the footprint (union of all
	// cycle graphs), churned by properly recoloring 32 random nodes per
	// round. Properness w.r.t. the footprint implies properness on every
	// window intersection graph, so — like a converged run of the real
	// algorithms — rounds are (near-)violation-free and the benchmark
	// measures checking cost, not violation-report formatting.
	foot := graphs[0]
	for _, g := range graphs[1:] {
		foot = graph.Union(foot, g)
	}
	recolor := func(out []problems.Value, v graph.NodeID) {
		used := make(map[problems.Value]bool)
		for _, u := range foot.Neighbors(v) {
			used[out[u]] = true
		}
		for c := problems.Value(1); ; c++ {
			if !used[c] {
				out[v] = c
				return
			}
		}
	}
	out := make([]problems.Value, n)
	for v := 0; v < n; v++ {
		recolor(out, graph.NodeID(v))
	}
	for i := range outs {
		for j := 0; j < 32; j++ {
			recolor(out, graph.NodeID(s.Intn(n)))
		}
		outs[i] = append([]problems.Value(nil), out...)
	}
	// Ping-pong through the cycle so every step — including the wrap — is
	// exactly one 32-toggle/32-recolor delta; a plain modulo wrap from
	// graphs[cycle-1] back to graphs[0] would inject one ~47×-churn round
	// per cycle and skew the incremental path's steady-state numbers.
	order := make([]int, 0, 2*cycle-2)
	for i := 0; i < cycle; i++ {
		order = append(order, i)
	}
	for i := cycle - 2; i >= 1; i-- {
		order = append(order, i)
	}
	// changedInto[k] is the output diff over the transition into position
	// k of the ping-pong order (from position (k-1+L)%L) — what the
	// engine's RoundInfo.Changed feed would carry. The first observation
	// of a run diffs against the all-⊥ initial state instead.
	diffOuts := func(a, b []problems.Value) []graph.NodeID {
		var d []graph.NodeID
		for i := range b {
			if a[i] != b[i] {
				d = append(d, graph.NodeID(i))
			}
		}
		return d
	}
	changedInto := make([][]graph.NodeID, len(order))
	for k := range order {
		prev := order[(k-1+len(order))%len(order)]
		changedInto[k] = diffOuts(outs[prev], outs[order[k]])
	}
	firstChanged := diffOuts(make([]problems.Value, n), outs[0])
	// addsInto/removesInto mirror changedInto on the topology side: the
	// edge diff over the transition into each ping-pong position, i.e.
	// what RoundInfo.EdgeAdds/EdgeRemoves would carry.
	addsInto := make([][]graph.EdgeKey, len(order))
	removesInto := make([][]graph.EdgeKey, len(order))
	for k := range order {
		prev := order[(k-1+len(order))%len(order)]
		addsInto[k], removesInto[k] = graph.DiffSortedKeys(
			graphs[prev].EdgeKeys(), graphs[order[k]].EdgeKeys(), nil, nil)
	}
	wake := AllNodes(n)
	b.Run("delta-feed", func(b *testing.B) {
		chk := verify.NewTDynamic(problems.Coloring(), T, n)
		round := func(k int) {
			chk.Feed(engine.RoundDelta{
				EdgeAdds: addsInto[k], EdgeRemoves: removesInto[k],
				Outputs: outs[order[k]], Changed: changedInto[k],
			})
		}
		chk.Feed(engine.RoundDelta{EdgeAdds: graphs[0].EdgeKeys(), Wake: wake, Outputs: outs[0], Changed: firstChanged})
		for k := 1; k < len(order); k++ { // fill the window before timing
			round(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(i % len(order))
		}
	})
	b.Run("oracle", func(b *testing.B) {
		orc := verifytest.NewOracle(problems.Coloring(), T, n)
		round := func(k int) { orc.Observe(graphs[order[k]], nil, outs[order[k]]) }
		orc.Observe(graphs[0], wake, outs[0])
		for k := 1; k < len(order); k++ { // fill the window before timing
			round(k)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(i % len(order))
		}
	})
}

// BenchmarkTopologyDelta measures the delta feed of the topology plane
// (recorded as BENCH_<date>-topo.json via `BENCH=BenchmarkTopologyDelta
// LABEL=-topo scripts/bench.sh`): N ∈ {4096, 65536} × churn ∈ {low, high}
// toggled edges per round, handing a T-dynamic sliding window each round's
// sorted diff (Window.ObserveEdgeDelta), the feed the engine's
// RoundInfo.EdgeAdds/EdgeRemoves supplies. The cost scales with churn
// volume only, so at fixed churn it stays flat as n grows.
func BenchmarkTopologyDelta(b *testing.B) {
	const T = 16
	const cycle = 8
	for _, n := range []int{4096, 65536} {
		for _, churn := range []struct {
			name string
			rate int
		}{
			{"low", 32},
			{"high", n / 16},
		} {
			// Pre-generate a ping-pong schedule of consistent rounds as
			// sorted diffs. The ping-pong makes every transition —
			// including the wrap — exactly one churn-rate delta.
			s := prf.NewStream(uint64(n+churn.rate), 0, 0, prf.PurposeWorkload)
			present := make(map[graph.EdgeKey]bool)
			base := GNP(n, 8.0/float64(n), uint64(n))
			for _, k := range base.EdgeKeys() {
				present[k] = true
			}
			snapshot := func() []graph.EdgeKey {
				keys := make([]graph.EdgeKey, 0, len(present))
				for k := range present {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				return keys
			}
			type round struct{ adds, removes []graph.EdgeKey }
			// Forward transitions s0→s1→…→s_c, then the exact reverses
			// back down to s0, so position i%len always continues from
			// position (i-1)%len — including across the wrap.
			startKeys := snapshot()
			rounds := make([]round, 0, 2*cycle)
			prevKeys := startKeys
			for i := 0; i < cycle; i++ {
				for j := 0; j < churn.rate; j++ {
					u := graph.NodeID(s.Intn(n))
					v := graph.NodeID(s.Intn(n))
					if u == v {
						continue
					}
					k := graph.MakeEdgeKey(u, v)
					if present[k] {
						delete(present, k)
					} else {
						present[k] = true
					}
				}
				keys := snapshot()
				adds, removes := graph.DiffSortedKeys(prevKeys, keys, nil, nil)
				rounds = append(rounds, round{adds, removes})
				prevKeys = keys
			}
			for i := cycle - 1; i >= 0; i-- {
				rounds = append(rounds, round{adds: rounds[i].removes, removes: rounds[i].adds})
			}
			all := adversary.AllNodes(n)
			b.Run(fmt.Sprintf("N=%d/churn=%s/delta", n, churn.name), func(b *testing.B) {
				w := dyngraph.NewWindow(T, n)
				w.ObserveEdgeDelta(startKeys, nil, all)
				for k := 0; k < len(rounds); k++ {
					w.ObserveEdgeDelta(rounds[k].adds, rounds[k].removes, nil)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := &rounds[i%len(rounds)]
					w.ObserveEdgeDelta(r.adds, r.removes, nil)
				}
			})
		}
	}
}

// BenchmarkSparseRound measures full engine rounds in the paper's highly
// dynamic P2P regime — active ≪ n — crossing universe size, active
// fraction and churn rate, with the sparse activity plane (the default)
// against the Config{Dense: true} reference walk. The workload is
// standalone DMis (the one algorithm with a Quiescer: its Dominated
// majority leaves the active set) over a churned G(k, 8/k) on the first
// k = N/frac nodes of an N-node universe; sparse and dense produce
// bit-identical outputs (pinned by TestSparseMatchesDense), so the
// timings compare equal work. Steady state is reached before timing:
// wake, convergence and quiescent drops all happen during warm-up.
// Recorded as BENCH_*-sparse.json via
// `BENCH=BenchmarkSparseRound LABEL=-sparse scripts/bench.sh`.
func BenchmarkSparseRound(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		for _, frac := range []int{1024, 64, 8} {
			k := n / frac
			if k < 512 {
				// Fewer than 512 participants is not the sparse regime,
				// it is a small graph; skip (affects N=65536/1of1024).
				continue
			}
			// Churn is per-capita — a fraction of the participant count
			// per round, the standard P2P session-churn framing — so the
			// low/high cells mean the same thing at every k: ~0.8%/round
			// of edges resampled vs ~6%/round.
			for _, churn := range []struct {
				name string
				rate int
			}{
				{"low", k / 128},
				{"high", k / 16},
			} {
				for _, mode := range []struct {
					name  string
					dense bool
				}{
					{"sparse", false},
					{"dense", true},
				} {
					name := fmt.Sprintf("N=%d/active=1of%d/churn=%s/%s", n, frac, churn.name, mode.name)
					b.Run(name, func(b *testing.B) {
						base := GNP(k, 8.0/float64(k), uint64(n+k))
						adv := NewChurn(base, churn.rate, churn.rate, uint64(k+churn.rate))
						e := engine.New(engine.Config{N: n, Seed: 7, Dense: mode.dense}, adv, mis.NewDynamic(n))
						for r := 0; r < 48; r++ {
							e.Step()
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							e.Step()
						}
					})
				}
			}
		}
	}
}

// BenchmarkStatsFit keeps the reporting path honest.
// buildTraceWire encodes a deterministic churn trace — a GNP base graph
// at round 1, then `rate` random edge toggles per round — through the
// streaming encoder, returning the wire bytes.
func buildTraceWire(b *testing.B, n, rounds, rate int) []byte {
	b.Helper()
	var buf bytes.Buffer
	enc, err := dyngraph.NewStreamEncoder(&buf, n, rounds)
	if err != nil {
		b.Fatal(err)
	}
	base := GNP(n, 8.0/float64(n), uint64(n))
	present := make(map[graph.EdgeKey]bool)
	for _, k := range base.EdgeKeys() {
		present[k] = true
	}
	if err := enc.WriteRound(adversary.AllNodes(n), base.EdgeKeys(), nil); err != nil {
		b.Fatal(err)
	}
	s := prf.NewStream(uint64(n+rate), 0, 0, prf.PurposeWorkload)
	var adds, removes []graph.EdgeKey
	for r := 2; r <= rounds; r++ {
		adds, removes = adds[:0], removes[:0]
		for j := 0; j < rate; j++ {
			u := graph.NodeID(s.Intn(n))
			v := graph.NodeID(s.Intn(n))
			if u == v {
				continue
			}
			k := graph.MakeEdgeKey(u, v)
			// A key toggled twice in one round cancels to a net no-op —
			// the diff must be an exact set difference.
			if present[k] {
				present[k] = false
				if i := slices.Index(adds, k); i >= 0 {
					adds = slices.Delete(adds, i, i+1)
				} else {
					removes = append(removes, k)
				}
			} else {
				present[k] = true
				if i := slices.Index(removes, k); i >= 0 {
					removes = slices.Delete(removes, i, i+1)
				} else {
					adds = append(adds, k)
				}
			}
		}
		slices.Sort(adds)
		slices.Sort(removes)
		if err := enc.WriteRound(nil, adds, removes); err != nil {
			b.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkTraceReplay compares the two trace replay paths on long
// recorded schedules: DecodeTrace + ReplayDeltas materializes the whole
// trace in memory (allocations scale with trace length), while
// StreamDecoder pulls one validated round at a time from reused buffers
// (allocations independent of trace length — compare rounds=512 against
// rounds=4096 at N=4096). allocs/op is the headline; ns/round the
// throughput view.
func BenchmarkTraceReplay(b *testing.B) {
	const rate = 48
	configs := []struct{ n, rounds int }{
		{4096, 512},
		{4096, 4096},
		{65536, 512},
	}
	for _, cfg := range configs {
		wire := buildTraceWire(b, cfg.n, cfg.rounds, rate)
		tag := fmt.Sprintf("N=%d/rounds=%d", cfg.n, cfg.rounds)
		b.Run(tag+"/inmemory", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			edges := 0
			for i := 0; i < b.N; i++ {
				tr, err := dyngraph.DecodeTrace(bytes.NewReader(wire))
				if err != nil {
					b.Fatal(err)
				}
				tr.ReplayDeltas(func(_ int, adds, _ []graph.EdgeKey, _ []graph.NodeID) {
					edges += len(adds)
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.rounds), "ns/round")
			_ = edges
		})
		b.Run(tag+"/streaming", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			edges := 0
			for i := 0; i < b.N; i++ {
				d, err := dyngraph.NewStreamDecoder(bytes.NewReader(wire))
				if err != nil {
					b.Fatal(err)
				}
				for {
					tr, err := d.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					edges += len(tr.Adds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.rounds), "ns/round")
			_ = edges
		})
	}
}

// BenchmarkCheckpoint measures the cost of the checkpoint/resume plane
// as the universe grows: snapshotting a mid-run engine+checker pair as a
// one-record chain (the base record), restoring a fresh pair from it
// (heap and arena-pooled), writing one incremental delta record, and
// replaying a base+delta chain. Base snapshot and restore scale with
// live state (nodes, window edges, adversary footprint); the delta modes
// scale with the activity between records — hence the two churn levels —
// and bytes/op sizes the serialized form itself. Sub-benchmark names
// predate the single record format and are kept so older BENCH files
// stay comparable.
func BenchmarkCheckpoint(b *testing.B) {
	const rounds = 32
	// interval is the rounds between chain records: each delta covers
	// interval rounds of churn and algorithm reaction.
	const interval = 4

	// Base-record modes: the combined MIS pipeline mid-run, the heaviest
	// state the plane serializes (snapshot ring, window, beacon levels).
	// These keep the historical names and configuration so runs compare
	// across recorded baselines.
	for _, n := range []int{1024, 4096, 16384} {
		mkAdv := func() adversary.Adversary {
			base := graph.GNP(n, 8.0/float64(n), prf.NewStream(7, 0, 0, prf.PurposeWorkload))
			return &adversary.Churn{Base: base, Add: 16, Del: 16, Seed: 3}
		}
		cfg := engine.Config{N: n, Seed: 1, Workers: 4}
		algo := mis.NewMIS(n)
		e := engine.New(cfg, mkAdv(), algo)
		chk := verify.NewTDynamic(problems.MIS(), algo.T1, n)
		e.OnRound(func(info *engine.RoundInfo) { chk.Feed(info.Delta()) })
		e.Run(rounds)
		var ck bytes.Buffer
		if err := WriteCheckpointChain(&ck, e, chk); err != nil {
			b.Fatal(err)
		}

		b.Run(fmt.Sprintf("snapshot/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ck.Len()))
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				buf.Grow(ck.Len())
				if err := WriteCheckpointChain(&buf, e, chk); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("restore/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ck.Len()))
			for i := 0; i < b.N; i++ {
				algo2 := mis.NewMIS(n)
				e2 := engine.New(cfg, mkAdv(), algo2)
				chk2 := verify.NewTDynamic(problems.MIS(), algo2.T1, n)
				if err := ReadCheckpointChain(bytes.NewReader(ck.Bytes()), e2, chk2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("arena-restore/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(ck.Len()))
			arena := NewRestoreArena()
			for i := 0; i < b.N; i++ {
				// The previous iteration's restored run is dead; its
				// arena memory is reusable.
				arena.Reset()
				algo2 := mis.NewMIS(n)
				e2 := engine.New(cfg, mkAdv(), algo2)
				chk2 := verify.NewTDynamic(problems.MIS(), algo2.T1, n)
				if err := ReadCheckpointChain(bytes.NewReader(ck.Bytes()), e2, chk2, arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Delta modes: standalone dynamic MIS warmed past its convergence
	// window, where most of the universe is quiescent and a delta record
	// pays only for the nodes churn actually disturbs. (The combined
	// pipeline is the wrong scenario here by construction: Concat nodes
	// never quiesce — beacons re-broadcast and the simulation pipeline
	// rotates every round — so its deltas degenerate to near-full size,
	// as docs/checkpointing.md spells out.) The two churn levels show
	// delta cost tracking per-interval activity, not N.
	for _, cl := range []struct {
		tag      string
		add, del int
	}{{"churn=32", 16, 16}, {"churn=4", 2, 2}} {
		for _, n := range []int{1024, 4096, 16384} {
			mkAdv := func() adversary.Adversary {
				base := graph.GNP(n, 8.0/float64(n), prf.NewStream(7, 0, 0, prf.PurposeWorkload))
				return &adversary.Churn{Base: base, Add: cl.add, Del: cl.del, Seed: 3}
			}
			cfg := engine.Config{N: n, Seed: 1, Workers: 4}
			t1 := mis.DefaultMISWindow(n)
			e := engine.New(cfg, mkAdv(), mis.NewDynamic(n))
			chk := verify.NewTDynamic(problems.MIS(), t1, n)
			e.OnRound(func(info *engine.RoundInfo) { chk.Feed(info.Delta()) })
			e.Run(2*t1 + 16)
			if cl.add == 16 {
				// The delta acceptance ratio compares against a base
				// record of the same engine, not the combined one.
				var full bytes.Buffer
				if err := WriteCheckpointChain(&full, e, chk); err != nil {
					b.Fatal(err)
				}
				b.Run(fmt.Sprintf("snapshot-dmis/N=%d", n), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(int64(full.Len()))
					for i := 0; i < b.N; i++ {
						var buf bytes.Buffer
						buf.Grow(full.Len())
						if err := WriteCheckpointChain(&buf, e, chk); err != nil {
							b.Fatal(err)
						}
					}
				})
			}

			// Build the incremental chain: base at the warmed round, then
			// one delta record per interval of live rounds.
			var chain bytes.Buffer
			if err := WriteCheckpointChain(&chain, e, chk); err != nil {
				b.Fatal(err)
			}
			for rec := 0; rec < 3; rec++ {
				for i := 0; i < interval; i++ {
					e.Step()
				}
				if err := AppendCheckpointDelta(&chain, e, chk); err != nil {
					b.Fatal(err)
				}
			}
			// One more interval of activity backs the delta-write mode.
			for i := 0; i < interval; i++ {
				e.Step()
			}

			b.Run(fmt.Sprintf("delta/%s/N=%d", cl.tag, n), func(b *testing.B) {
				b.ReportAllocs()
				probe, err := appendDeltaRecord(nil, e, chk)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(probe)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The writer reserves a whole varint before each
					// field, so a buffer of exactly the record's length
					// would double on the last one.
					buf := make([]byte, 0, len(probe)+binary.MaxVarintLen64)
					if _, err := appendDeltaRecord(buf, e, chk); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("chain-restore/%s/N=%d", cl.tag, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(chain.Len()))
				arena := NewRestoreArena()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					e2 := engine.New(cfg, mkAdv(), mis.NewDynamic(n))
					chk2 := verify.NewTDynamic(problems.MIS(), t1, n)
					if err := ReadCheckpointChain(bytes.NewReader(chain.Bytes()), e2, chk2, arena); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// appendDeltaRecord serializes one delta record without noting it, so a
// benchmark can write the same delta repeatedly against a live run.
func appendDeltaRecord(buf []byte, e *engine.Engine, chk *verify.TDynamic) ([]byte, error) {
	w := ckpt.NewWriter(buf)
	e.CheckpointTo(w, false)
	chk.SaveDelta(w, false)
	err := w.Close()
	return w.Bytes(), err
}

func BenchmarkStatsFit(b *testing.B) {
	ns := []int{128, 256, 512, 1024, 2048, 4096}
	y := []float64{10, 12, 14, 16, 18, 20}
	for i := 0; i < b.N; i++ {
		_ = stats.FitLogN(ns, y)
	}
}
