package engine

import (
	"fmt"
	"runtime"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// The engine's determinism contract (package doc): outputs and accounting
// are bit-identical for every worker count, because per-node work is keyed
// by (seed, node, round, purpose) prf streams and per-worker accounting
// folds with exact integer sums. These tests pin the contract across the
// serial-threshold boundary, across worker counts, and under the churn and
// local-static adversaries used by the experiments.

// runTrace plays rounds and records every round's outputs, deltas,
// messages and bits (all copied — the engine pools its RoundInfo buffers).
type roundTrace struct {
	outputs  [][]problems.Value
	changed  [][]graph.NodeID
	adds     [][]graph.EdgeKey
	removes  [][]graph.EdgeKey
	messages []int
	bits     []int64
}

func collectTrace(n, workers, rounds int, mkAdv func() adversary.Adversary, algo Algorithm) roundTrace {
	e := New(Config{N: n, Seed: 42, Workers: workers}, mkAdv(), algo)
	var tr roundTrace
	e.OnRound(func(info *RoundInfo) {
		tr.outputs = append(tr.outputs, append([]problems.Value(nil), info.Outputs...))
		tr.changed = append(tr.changed, append([]graph.NodeID(nil), info.Changed...))
		tr.adds = append(tr.adds, append([]graph.EdgeKey(nil), info.EdgeAdds...))
		tr.removes = append(tr.removes, append([]graph.EdgeKey(nil), info.EdgeRemoves...))
		tr.messages = append(tr.messages, info.Messages)
		tr.bits = append(tr.bits, info.Bits)
	})
	e.Run(rounds)
	return tr
}

func diffTraces(t *testing.T, label string, a, b roundTrace) {
	t.Helper()
	for r := range a.outputs {
		if a.messages[r] != b.messages[r] {
			t.Fatalf("%s: round %d messages %d vs %d", label, r+1, a.messages[r], b.messages[r])
		}
		if a.bits[r] != b.bits[r] {
			t.Fatalf("%s: round %d bits %d vs %d", label, r+1, a.bits[r], b.bits[r])
		}
		for v := range a.outputs[r] {
			if a.outputs[r][v] != b.outputs[r][v] {
				t.Fatalf("%s: round %d node %d output %d vs %d",
					label, r+1, v, a.outputs[r][v], b.outputs[r][v])
			}
		}
		if len(a.changed[r]) != len(b.changed[r]) {
			t.Fatalf("%s: round %d changed %v vs %v", label, r+1, a.changed[r], b.changed[r])
		}
		for i := range a.changed[r] {
			if a.changed[r][i] != b.changed[r][i] {
				t.Fatalf("%s: round %d changed %v vs %v", label, r+1, a.changed[r], b.changed[r])
			}
		}
		if len(a.adds[r]) != len(b.adds[r]) || len(a.removes[r]) != len(b.removes[r]) {
			t.Fatalf("%s: round %d topology delta sizes diverge", label, r+1)
		}
		for i := range a.adds[r] {
			if a.adds[r][i] != b.adds[r][i] {
				t.Fatalf("%s: round %d adds %v vs %v", label, r+1, a.adds[r], b.adds[r])
			}
		}
		for i := range a.removes[r] {
			if a.removes[r][i] != b.removes[r][i] {
				t.Fatalf("%s: round %d removes %v vs %v", label, r+1, a.removes[r], b.removes[r])
			}
		}
	}
}

func churnAdv(n int) func() adversary.Adversary {
	return func() adversary.Adversary {
		s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
		base := graph.GNP(n, 6.0/float64(n), s)
		return &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: 17}
	}
}

func localStaticAdv(n int) func() adversary.Adversary {
	return func() adversary.Adversary {
		s := prf.NewStream(9, 0, 0, prf.PurposeWorkload)
		base := graph.GNP(n, 6.0/float64(n), s)
		return &adversary.LocalStatic{
			Inner:     &adversary.Churn{Base: base, Add: n / 24, Del: n / 24, Seed: 17},
			Base:      base,
			Protected: []graph.NodeID{graph.NodeID(n / 3), graph.NodeID(2 * n / 3)},
			Alpha:     2,
		}
	}
}

// TestDeterminismAcrossWorkerCounts runs the sized bit-accounting
// algorithm at N above the serial threshold under churn and local-static
// adversaries, for Workers ∈ {1, 4, GOMAXPROCS}, and requires identical
// per-round outputs, message counts and bit counts.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	const n = serialThreshold * 2
	const rounds = 20
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	advs := map[string]func() adversary.Adversary{
		"churn":        churnAdv(n),
		"local-static": localStaticAdv(n),
	}
	for name, mk := range advs {
		ref := collectTrace(n, workerCounts[0], rounds, mk, sizedAlgo{})
		for _, w := range workerCounts[1:] {
			got := collectTrace(n, w, rounds, mk, sizedAlgo{})
			diffTraces(t, fmt.Sprintf("%s workers=%d", name, w), ref, got)
		}
	}
}

// TestDeterminismAcrossSerialThreshold pins outputs across the
// serial/sharded boundary: N just below the threshold always runs serial,
// N just above runs sharded when Workers > 1 — both must agree with the
// Workers=1 run at the same N.
func TestDeterminismAcrossSerialThreshold(t *testing.T) {
	const rounds = 12
	for _, n := range []int{serialThreshold - 1, serialThreshold, serialThreshold + 1} {
		for name, mk := range map[string]func() adversary.Adversary{
			"churn":        churnAdv(n),
			"local-static": localStaticAdv(n),
		} {
			ref := collectTrace(n, 1, rounds, mk, sizedAlgo{})
			got := collectTrace(n, 4, rounds, mk, sizedAlgo{})
			diffTraces(t, fmt.Sprintf("%s n=%d", name, n), ref, got)
		}
	}
}

// TestEdgeBalancedShardsOnSkewedDegrees runs a star graph — the
// worst-case degree skew for index sharding — and checks the determinism
// contract across the sharded and serial runs.
func TestEdgeBalancedShardsOnSkewedDegrees(t *testing.T) {
	const n = serialThreshold * 2
	mk := func() adversary.Adversary {
		return adversary.Static{G: graph.Star(n)}
	}
	ref := collectTrace(n, 1, 6, mk, sizedAlgo{})
	got := collectTrace(n, 4, 6, mk, sizedAlgo{})
	diffTraces(t, "star", ref, got)
}

// TestListCutsPartitionActiveList pins the shard cutter. With more than
// one worker and at least serialThreshold nodes on the list, the cuts
// run from 0 to len(list) without decreasing, one range per worker, and
// no range outweighs its share of the degree-weighted total by more than
// the heaviest node. Otherwise the cutter returns nil and phases run
// serially.
func TestListCutsPartitionActiveList(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, g := range []*graph.Graph{
			graph.Star(1000),
			graph.Empty(1000),
			graph.Complete(60),
			graph.Complete(serialThreshold),
		} {
			e := New(Config{N: g.N(), Seed: 1, Workers: workers},
				adversary.Static{G: g}, degreeAlgo{})
			e.Step()
			list := e.activeList
			if len(list) != g.N() {
				t.Fatalf("workers=%d g=%v: %d nodes active, want all %d", workers, g, len(list), g.N())
			}
			cuts := e.listCuts(list)
			if workers == 1 || len(list) < serialThreshold {
				if cuts != nil {
					t.Fatalf("workers=%d g=%v: cuts %v, want nil (serial)", workers, g, cuts)
				}
				continue
			}
			if len(cuts) != workers+1 || cuts[0] != 0 || cuts[workers] != len(list) {
				t.Fatalf("workers=%d g=%v: bad cuts %v", workers, g, cuts)
			}
			total, heaviest := 0, 0
			for _, v := range list {
				total += g.Degree(v) + 1
				heaviest = max(heaviest, g.Degree(v)+1)
			}
			for w := 1; w <= workers; w++ {
				if cuts[w] < cuts[w-1] {
					t.Fatalf("workers=%d g=%v: non-monotone cuts %v", workers, g, cuts)
				}
				weight := 0
				for _, v := range list[cuts[w-1]:cuts[w]] {
					weight += g.Degree(v) + 1
				}
				if weight > total/workers+heaviest+1 {
					t.Fatalf("workers=%d g=%v: shard %d weighs %d of %d", workers, g, w-1, weight, total)
				}
			}
		}
	}
}

// TestSnapshotPoolingKeepsLagWindowIntact verifies the pooled snapshot
// ring: the adversary's delayed view and the last OutputLag round infos
// must remain untouched while newer rounds are played.
func TestSnapshotPoolingKeepsLagWindowIntact(t *testing.T) {
	const n = 8
	var infos []*RoundInfo
	e := New(Config{N: n, Seed: 3, OutputLag: 2}, adversary.Static{G: graph.Cycle(n)}, roundAlgo{})
	//dynlint:ignore loancheck deliberately retains raw pooled pointers to assert the OutputLag+1 ring keeps lag-window rounds intact
	e.OnRound(func(info *RoundInfo) { infos = append(infos, info) })
	e.Run(10)
	// roundAlgo outputs its age: round r snapshot is all r. The two most
	// recent snapshots before the current one must still be readable.
	for r := 8; r <= 10; r++ {
		for v := 0; v < n; v++ {
			if got := infos[r-1].Outputs[v]; got != problems.Value(r) {
				t.Fatalf("round %d node %d: pooled snapshot = %d, want %d", r, v, got, r)
			}
		}
	}
}
