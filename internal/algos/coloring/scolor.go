package coloring

import (
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// SColorFactory builds SColor instances (Algorithm 3). It implements
// core.NetworkStaticAlgorithm for (C_P, C_C) with α = 2 (Lemma 4.5):
//
//   - B.1: at the end of every round the colored nodes form a proper
//     coloring of G_r with colors within {1, …, d_r(v)+1} — any node
//     violating either condition un-colors itself (line 10).
//   - B.2: if the 2-neighborhood of v is static on [r, r₂], then v holds a
//     fixed non-⊥ color throughout [r+T, r₂], w.h.p., for T = O(log n).
//
// Unlike DColor, SColor communicates on the *current* graph and rebuilds
// its palette as [d_r(v)+1] \ F_v every round, so colors can re-enter the
// palette when neighbors un-color.
type SColorFactory struct {
	// N is the universe size.
	N int
	// Stabilization overrides the default T₂ (0 = default).
	Stabilization int
}

// Name implements core.NetworkStaticAlgorithm.
func (f *SColorFactory) Name() string { return "scolor" }

// StabilizationTime implements core.NetworkStaticAlgorithm.
func (f *SColorFactory) StabilizationTime(n int) int {
	if f.Stabilization > 0 {
		return f.Stabilization
	}
	return DefaultColoringWindow(n)
}

// Alpha implements core.NetworkStaticAlgorithm: SColor is network-static
// with respect to 2-neighborhoods.
func (f *SColorFactory) Alpha() int { return 2 }

// MessageBits declares the encoded message size (kind + color).
func (f *SColorFactory) MessageBits(m engine.SubMsg) int {
	return 2 + ceilLog2(f.N+2)
}

// NewNode implements core.NetworkStaticAlgorithm.
func (f *SColorFactory) NewNode(v graph.NodeID) core.NodeInstance {
	return &scolorNode{v: v}
}

type scolorNode struct {
	v graph.NodeID

	out       problems.Value
	pal       palette
	tentative int64
}

// Start accepts an input coloring (the Remark after Theorem 1.1 allows
// starting the framework from a pre-existing solution) and initializes
// the palette to {1} as in Algorithm 3 — no communication round needed.
func (s *scolorNode) Start(ctx *engine.Ctx, input problems.Value) {
	s.out = input
	s.tentative = 0
	s.pal.reset(1)
}

// Broadcast implements the send half of Algorithm 3.
func (s *scolorNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if s.out != problems.Bot {
		return append(buf, engine.SubMsg{Kind: KindFixed, A: int64(s.out)})
	}
	if s.pal.len() == 0 {
		// Degenerate palette (e.g. a fixed neighbor owned color 1 while
		// our degree was 0): skip the tentative this round; the palette
		// is rebuilt below from the current degree.
		s.tentative = 0
		return append(buf, engine.SubMsg{Kind: KindTentative, A: 0})
	}
	st := ctx.Stream(prfTentative)
	s.tentative = s.pal.pick(&st)
	return append(buf, engine.SubMsg{Kind: KindTentative, A: s.tentative})
}

// Process implements the receive half of Algorithm 3.
func (s *scolorNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	// Rebuild the palette: P_v = [d_r(v)+1] \ F_v.
	s.pal.reset(deg + 1)
	tentativeClash := false
	for _, m := range in {
		switch m.M.Kind {
		case KindFixed:
			s.pal.remove(m.M.A)
		case KindTentative:
			if m.M.A != 0 && m.M.A == s.tentative {
				tentativeClash = true
			}
		}
	}
	if s.out == problems.Bot {
		if s.tentative != 0 && s.pal.contains(s.tentative) && !tentativeClash {
			s.out = problems.Value(s.tentative)
		}
	} else if !s.pal.contains(int64(s.out)) {
		// Line 10: conflict with a neighbor's fixed color, or the color
		// fell out of the degree+1 range — un-color.
		s.out = problems.Bot
	}
}

// Output implements core.NodeInstance.
func (s *scolorNode) Output() problems.Value { return s.out }
