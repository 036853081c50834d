package coloring

import (
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// BasicFactory builds instances of Algorithm 6, the pipelined variant of
// the classic randomized (degree+1)-coloring for static graphs: every
// round has the identical structure (no two-round phases), so the
// algorithm also works under asynchronous wake-up. Colored nodes never
// un-color. Lemmas 6.1/6.2: each round an uncolored node is colored with
// probability ≥ 1/64 or its palette shrinks by ≥ 1/4, and all nodes are
// colored within O(log n) rounds w.h.p.
//
// Basic is the common ancestor of DColor (add intersection-graph
// communication) and SColor (add palette rebuilding and un-coloring);
// having it standalone lets the test suite reproduce the static-graph
// lemmas directly and the benches compare the three variants.
type BasicFactory struct {
	// N is the universe size.
	N int
	// Probe, if set, receives one Event per node per round (concurrently;
	// must be safe). Feeds the Lemma 6.1 experiment.
	Probe func(Event)
}

// Name implements engine algorithm naming.
func (f *BasicFactory) Name() string { return "basic-coloring" }

// MessageBits declares the encoded message size (kind + color).
func (f *BasicFactory) MessageBits(m engine.SubMsg) int {
	return 2 + ceilLog2(f.N+2)
}

// NewNode creates the per-node instance.
func (f *BasicFactory) NewNode(v graph.NodeID) core.NodeInstance {
	return &basicNode{f: f, v: v}
}

type basicNode struct {
	f *BasicFactory
	v graph.NodeID

	out       problems.Value
	pal       palette
	started   bool
	tentative int64
}

// Start initializes P_v = {1}; no communication round needed.
func (b *basicNode) Start(ctx *engine.Ctx, input problems.Value) {
	b.out = input
	b.pal.reset(1)
}

// Broadcast implements the send half of Algorithm 6.
func (b *basicNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if b.out != problems.Bot {
		return append(buf, engine.SubMsg{Kind: KindFixed, A: int64(b.out)})
	}
	if b.pal.len() == 0 {
		b.tentative = 0
		return append(buf, engine.SubMsg{Kind: KindTentative, A: 0})
	}
	st := ctx.Stream(prfTentative)
	b.tentative = b.pal.pick(&st)
	return append(buf, engine.SubMsg{Kind: KindTentative, A: b.tentative})
}

// Process implements the receive half of Algorithm 6.
func (b *basicNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	palBefore := b.pal.len()
	wasUncolored := b.out == problems.Bot
	b.pal.reset(deg + 1)
	tentativeClash := false
	for _, m := range in {
		switch m.M.Kind {
		case KindFixed:
			b.pal.remove(m.M.A)
		case KindTentative:
			if m.M.A != 0 && m.M.A == b.tentative {
				tentativeClash = true
			}
		}
	}
	removed := 0
	if b.started && wasUncolored {
		// Palette shrink accounting for Lemma 6.1 (palette only shrinks
		// on a static graph, where deg is constant).
		if d := palBefore - b.pal.len(); d > 0 {
			removed = d
		}
	}
	b.started = true
	if wasUncolored && b.tentative != 0 && b.pal.contains(b.tentative) && !tentativeClash {
		b.out = problems.Value(b.tentative)
	}
	if b.f.Probe != nil {
		b.f.Probe(Event{
			Node:          b.v,
			PaletteBefore: palBefore,
			Removed:       removed,
			WasUncolored:  wasUncolored,
			GotColored:    wasUncolored && b.out != problems.Bot,
		})
	}
}

// Output implements core.NodeInstance.
func (b *basicNode) Output() problems.Value { return b.out }
