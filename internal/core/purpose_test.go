package core

import (
	"fmt"
	"testing"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// purposeProbe is a dynamic algorithm whose instances check the PRF
// purpose base they are handed: Start must see dalgPurpose of the
// instance's start key (keyOf of the start round), and every later
// Broadcast and Process the same base, however the combiner derives it.
type purposeProbe struct {
	keyOf func(round int) int32
	bad   []string
}

func (p *purposeProbe) Name() string       { return "purpose-probe" }
func (p *purposeProbe) WindowSize(int) int { return 0 }
func (p *purposeProbe) NewNode(graph.NodeID) NodeInstance {
	return &purposeInst{p: p}
}
func (p *purposeProbe) NewNodes(v graph.NodeID, k int, dst []NodeInstance) []NodeInstance {
	for range k {
		dst = append(dst, p.NewNode(v))
	}
	return dst
}

type purposeInst struct {
	p     *purposeProbe
	key   int32
	start int
}

func (i *purposeInst) Start(ctx *engine.Ctx, _ problems.Value) {
	i.key, i.start = i.p.keyOf(ctx.Round), ctx.Round
	i.check("Start", ctx)
}

func (i *purposeInst) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	i.check("Broadcast", ctx)
	return append(buf, engine.SubMsg{Kind: 1, A: int64(i.start)})
}

func (i *purposeInst) Process(ctx *engine.Ctx, in []engine.Incoming, _ int) {
	i.check("Process", ctx)
	for _, m := range in {
		if m.M.A != int64(i.start) {
			i.p.bad = append(i.p.bad, fmt.Sprintf("round %d: instance of round %d got a message of round %d", ctx.Round, i.start, m.M.A))
		}
	}
}

func (i *purposeInst) Output() problems.Value { return 1 }

func (i *purposeInst) check(call string, ctx *engine.Ctx) {
	if want := dalgPurpose(i.key); ctx.PurposeBase != want {
		i.p.bad = append(i.p.bad, fmt.Sprintf("round %d: %s of the instance with start key %d (slot %d) has purpose base %d, want %d",
			ctx.Round, call, i.key, dalgSlot(i.key), ctx.PurposeBase/prf.InstanceStride, want/prf.InstanceStride))
	}
}

// runProc drives one node processor directly from its wake round for
// the given number of rounds. In even rounds its inbox is its own
// outbox, as if one neighbor ran in lockstep with it, so Process slices
// every instance's run; in odd rounds the inbox is empty.
func runProc(p engine.NodeProc, wake, rounds int) {
	var buf []engine.SubMsg
	var in []engine.Incoming
	for r := wake; r < wake+rounds; r++ {
		ctx := &engine.Ctx{Node: 0, Round: r, Seed: 5}
		if r == wake {
			p.Start(ctx, problems.Bot)
		}
		buf = p.Broadcast(ctx, buf[:0])
		in = in[:0]
		if r%2 == 0 {
			for _, m := range buf {
				in = append(in, engine.Incoming{From: 1, M: m})
			}
		}
		p.Process(ctx, in, len(in))
	}
}

// TestSteppedPurposeMatchesModulo pins the combiners' stepped purpose
// bases to dalgPurpose's modulo across the purposeSlots-1 wrap: slot
// 4095 is followed by slot 1. Concat's start keys are the rounds r,
// Chain's 2r (mid) and 2r+1 (outer); the wake rounds put the live keys
// across the first and the second wrap.
func TestSteppedPurposeMatchesModulo(t *testing.T) {
	const rounds = 200
	for _, wake := range []int{3990, 8150, 2000, 4050} {
		t.Run(fmt.Sprintf("concat/wake=%d", wake), func(t *testing.T) {
			d := &purposeProbe{keyOf: func(r int) int32 { return int32(r) }}
			c := &Concat{D: d, S: &probeStatic{alpha: 1, stab: 1}, N: 1, T1: 61}
			runProc(c.NewNode(0), wake, rounds)
			for _, msg := range d.bad {
				t.Fatal(msg)
			}
		})
		t.Run(fmt.Sprintf("chain/wake=%d", wake), func(t *testing.T) {
			mid := &purposeProbe{keyOf: func(r int) int32 { return int32(2 * r) }}
			out := &purposeProbe{keyOf: func(r int) int32 { return int32(2*r + 1) }}
			c := &Chain{D: out, Mid: mid, S: &probeStatic{alpha: 1, stab: 1}, N: 1, T1: 61, Tm: 17}
			runProc(c.NewNode(0), wake, rounds)
			for _, msg := range append(mid.bad, out.bad...) {
				t.Fatal(msg)
			}
		})
	}
}
