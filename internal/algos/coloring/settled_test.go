package coloring

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

func TestDColorSettledHoldsWhileIsolated(t *testing.T) {
	f := &DColorFactory{N: 64}
	for _, in := range []problems.Value{problems.Bot, 1, 2, 7} {
		checkSettledHolds(t, f.NewNode(3), in, f.WindowSize(64))
	}
}

func TestSColorSettledHoldsWhileIsolated(t *testing.T) {
	f := &SColorFactory{N: 64}
	for _, in := range []problems.Value{problems.Bot, 1, 2, 7} {
		checkSettledHolds(t, f.NewNode(3), in, f.StabilizationTime(64))
	}
}

// TestSColorOtherColorNotSettled pins the state that must not report
// Settled: an isolated node colored other than 1 falls out of its
// palette {1} and uncolors.
func TestSColorOtherColorNotSettled(t *testing.T) {
	for _, c := range []problems.Value{2, 7} {
		inst := (&SColorFactory{N: 64}).NewNode(3)
		ctx := engine.Ctx{Node: 3, Round: 1, Seed: 1}
		inst.Start(&ctx, c)
		if inst.(core.Settler).Settled() {
			t.Fatalf("color %d: reports Settled", c)
		}
		isolatedRound(inst, 3, 1, 1)
		if got := inst.Output(); got != problems.Bot {
			t.Fatalf("color %d: isolated round left output %d, want ⊥", c, got)
		}
	}
}
