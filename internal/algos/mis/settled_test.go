package mis

import (
	"testing"

	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// isolatedRound plays one round of an instance whose node has no edge:
// its broadcast reaches no one and its inbox is empty.
func isolatedRound(inst core.NodeInstance, v graph.NodeID, r int, seed uint64) {
	ctx := engine.Ctx{Node: v, Round: r, Seed: seed, Isolated: true}
	inst.Broadcast(&ctx, nil)
	inst.Process(&ctx, nil, 0)
}

// checkSettledHolds starts inst on input and plays isolated rounds until
// it reports Settled, within window rounds, then 3·window more, none of
// which may change its output — the core.Settler contract Concat's
// parking relies on.
func checkSettledHolds(t *testing.T, inst core.NodeInstance, input problems.Value, window int) {
	t.Helper()
	const v = 3
	for seed := uint64(1); seed <= 8; seed++ {
		ctx := engine.Ctx{Node: v, Round: 1, Seed: seed}
		inst.Start(&ctx, input)
		r := 1
		for ; !inst.(core.Settler).Settled(); r++ {
			if r > window {
				t.Fatalf("seed %d, input %d: not settled after %d isolated rounds (output %d)", seed, input, window, inst.Output())
			}
			isolatedRound(inst, v, r, seed)
		}
		out := inst.Output()
		for end := r + 3*window; r < end; r++ {
			isolatedRound(inst, v, r, seed)
			if got := inst.Output(); got != out {
				t.Fatalf("seed %d, input %d: settled on %d, then output %d in isolated round %d", seed, input, out, got, r)
			}
			if !inst.(core.Settler).Settled() {
				t.Fatalf("seed %d, input %d: Settled turned false in isolated round %d", seed, input, r)
			}
		}
	}
}

func TestDMisSettledHoldsWhileIsolated(t *testing.T) {
	f := &DMisFactory{N: 64}
	for _, in := range []problems.Value{problems.Bot, problems.InMIS, problems.Dominated} {
		checkSettledHolds(t, f.NewNode(3), in, f.WindowSize(64))
	}
}

func TestSMisSettledHoldsWhileIsolated(t *testing.T) {
	f := &SMisFactory{N: 64}
	for _, in := range []problems.Value{problems.Bot, problems.InMIS, problems.Dominated} {
		checkSettledHolds(t, f.NewNode(3), in, f.StabilizationTime(64))
	}
}

// TestMISNotSettled pins the states that must not report Settled: each
// one's output still changes in an isolated run.
func TestMISNotSettled(t *testing.T) {
	cases := []struct {
		name string
		inst core.NodeInstance
	}{
		// A provisional Dominated input hears no mark in its second
		// round and reverts to ⊥.
		{"dmis provisional dominated", (&DMisFactory{N: 64}).NewNode(3)},
		// An isolated Dominated node has lost its dominator.
		{"smis dominated", (&SMisFactory{N: 64}).NewNode(3)},
	}
	for _, tc := range cases {
		ctx := engine.Ctx{Node: 3, Round: 1, Seed: 1}
		tc.inst.Start(&ctx, problems.Dominated)
		for r := 1; ; r++ {
			if tc.inst.(core.Settler).Settled() {
				t.Fatalf("%s: reports Settled in round %d with output %d", tc.name, r, tc.inst.Output())
			}
			isolatedRound(tc.inst, 3, r, 1)
			if tc.inst.Output() != problems.Dominated {
				break
			}
			if r > 2 {
				t.Fatalf("%s: still Dominated after %d isolated rounds", tc.name, r)
			}
		}
	}
}
