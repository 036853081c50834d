package dynlocal

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"dynlocal/internal/algos/mis"
	"dynlocal/internal/prf"
)

// deltaRecordAllocs is TestDeltaRecordAllocs's bound on one delta
// record: a record allocates nothing itself, and the bound absorbs one
// stray allocation by another goroutine, at most once per run.
const deltaRecordAllocs = 1

// TestStepAllocationGuard bounds the allocations of one steady-state
// round of the combined algorithms — N = 4096 under Churn 32+32 at one
// worker, measured after 2·T1 warm-up rounds, once every Concat pipeline
// is full. Delivery, the pipelines and the instances reuse their storage
// then, so what remains is churn-driven growth (new neighbors, adjacency
// rows); a regression to per-node or per-instance allocation overshoots
// the bounds by an order of magnitude. Coloring measures 41: its palettes
// sit inline in the instance blocks and its streak tables in storage
// carved per block, so beyond churn-driven growth only a start round
// with more than 12 senders allocates.
func TestStepAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 4096
	cases := []struct {
		name  string
		algo  *Combined
		bound float64
	}{
		{"coloring", NewColoring(n), 128},
		{"mis", NewMIS(n), 4096},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adv := NewChurn(GNP(n, 8.0/float64(n), 5), 32, 32, 6)
			e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, tc.algo)
			e.Run(2 * tc.algo.T1)
			allocs := testing.AllocsPerRun(4, func() { e.Step() })
			t.Logf("%s: %.0f allocations per round", tc.name, allocs)
			if allocs > tc.bound {
				t.Fatalf("%s: one round allocates %.0f times, bound %.0f", tc.name, allocs, tc.bound)
			}
		})
	}
}

// TestFillAllocationGuard bounds the allocations of one round of
// combined MIS while the Concat pipelines fill — P2P session churn over
// N = 4096 ids (1024 initial peers, 8 joins per round) at one worker,
// measured in rounds 17–21 of T1 = 49, before any pipeline is full. Each
// round every awake node adds an instance to its pipeline; the pipeline
// takes instances in blocks of eight from one NewNodes allocation, and
// each started instance allocates its one streak slice. That measures
// 2120 allocations per round; one allocation per instance measures 3851,
// and parallel streak key and value slices on top of that 4826.
func TestFillAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 4096
	algo := NewMIS(n)
	adv := &P2PChurnAdversary{N: n, Init: 1024, JoinPerRound: 8, Seed: 6}
	e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, algo)
	e.Run(16)
	allocs := testing.AllocsPerRun(4, func() { e.Step() })
	if e.Round() >= algo.T1-1 {
		t.Fatalf("measured up to round %d, past the fill (T1 = %d)", e.Round(), algo.T1)
	}
	t.Logf("%.0f allocations per fill round", allocs)
	if bound := 3072.0; allocs > bound {
		t.Fatalf("one fill round allocates %.0f times, bound %.0f", allocs, bound)
	}
}

// TestDeltaRecordAllocs bounds the allocations of one delta record of
// standalone DMis and its T-dynamic checker — N = 4096 under Churn
// 16+16 at one worker, a base, then a delta every 8 rounds. The record
// is encoded by the engine's reused writer, framed from the writer's own
// storage, and the engine's edge diff lists and the window's span keys
// and bucket rounds are kept in reused storage, so once the first delta
// has grown them a record allocates nothing. MemStats counts the whole
// process, so one delta may read 1 — a single stray allocation by
// another goroutine — but no delta may read more, and a second delta
// reading 1 fails too: a writer, diff list or length prefix allocated
// per record reads at least 1 on every delta.
func TestDeltaRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, deltas = 4096, 12
	adv := NewChurn(GNP(n, 8.0/float64(n), 5), 16, 16, 6)
	e := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, NewDMis(n))
	chk := NewTDynamicChecker(MISProblem(), mis.DefaultMISWindow(n), n)
	e.OnRound(func(info *RoundInfo) { chk.Feed(info.Delta()) })
	e.Run(8)
	if err := WriteCheckpointChain(io.Discard, e, chk); err != nil {
		t.Fatal(err)
	}
	// No GC cycle may start inside a measured record: its stop-the-world
	// restart can make the runtime start a thread, which allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	atBound := 0
	for i := 0; i < deltas; i++ {
		e.Run(8)
		// A read's stop-the-world restart may start a thread, which
		// allocates; the first read absorbs that, the second finds the
		// thread idle.
		runtime.ReadMemStats(&before)
		runtime.ReadMemStats(&before)
		err := AppendCheckpointDelta(io.Discard, e, chk)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs := after.Mallocs - before.Mallocs
		t.Logf("delta %d at round %d: %d allocations", i+1, e.Round(), allocs)
		if i == 0 {
			continue
		}
		if allocs > deltaRecordAllocs {
			t.Fatalf("delta %d at round %d allocates %d times, bound %d", i+1, e.Round(), allocs, deltaRecordAllocs)
		}
		if allocs == deltaRecordAllocs {
			if atBound++; atBound > 1 {
				t.Fatalf("delta %d at round %d is the second delta allocating %d times; only one stray allocation is tolerated", i+1, e.Round(), allocs)
			}
		}
	}
}

// stallView is an adversary view with scripted delayed outputs.
type stallView struct {
	round int
	n     int
	out   []Value
}

func (v *stallView) Round() int              { return v.round }
func (v *stallView) N() int                  { return v.n }
func (v *stallView) Awake(NodeID) bool       { return true }
func (v *stallView) DelayedOutputs() []Value { return v.out }

// TestClairvoyantAllocationGuard checks that the clairvoyant adversary's
// rounds allocate nothing after the first: the undecided set, the α
// words, the undecided adjacency, the winners and the burned list live
// in storage sized for the base graph in round 1. N = 2048 on
// G(n, 10/n). Round 1 burns every edge between undecided nodes, so later
// rounds rebuild an empty undecided adjacency; before the storage was
// kept, each of them allocated it anew.
func TestClairvoyantAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n = 2048
	adv := &ClairvoyantAdversary{Base: GNP(n, 10.0/n, 3), Seed: 5, Purpose: prf.PurposeLubyAlpha}
	view := &stallView{round: 1, n: n}
	adv.Step(view)
	view.out = make([]Value, n) // everyone still undecided
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	for r := 2; r <= 12; r++ {
		view.round = r
		runtime.ReadMemStats(&before)
		runtime.ReadMemStats(&before)
		adv.Step(view)
		runtime.ReadMemStats(&after)
		if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
			t.Fatalf("round %d allocates %d times", r, allocs)
		}
	}
}
