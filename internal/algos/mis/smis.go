package mis

import (
	"math"

	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// SMisFactory builds SMis instances (Algorithm 5), the
// (O(log n), 2)-network-static algorithm for (M_P, M_C) derived from
// Ghaffari's algorithm with two modifications for the dynamic setting:
// nodes leave the MIS (become undecided) when a neighboring MIS node
// appears, dominated nodes become undecided when their dominator
// disappears — and desire levels are clamped below at 1/(5n) (footnote
// 11) so that they recover quickly after the topology changes.
//
// Lemma 5.5: B.1 (partial solution every round) holds deterministically;
// B.2 holds w.h.p. with α = 2 — a node whose 2-neighborhood is static is
// decided within O(log n) rounds and never changes its output while the
// 2-neighborhood stays static.
type SMisFactory struct {
	// N is the universe size (needed for the 1/(5n) desire floor).
	N int
	// Stabilization overrides the default T₂ (0 = default).
	Stabilization int
	// Probe, if set, receives one DesireEvent per undecided node per
	// round (concurrently; must be safe). Feeds the golden-round
	// experiment (E7).
	Probe func(DesireEvent)
	// DisableDesireFloor removes the 1/(5n) lower bound on desire levels,
	// reverting to the original Ghaffari update rule. The paper calls the
	// floor crucial in the dynamic setting (footnote 11): without it,
	// desire levels starved by an earlier dense neighborhood take
	// arbitrarily long to recover after the topology changes. Exposed
	// only for the ablation benchmark.
	DisableDesireFloor bool
}

// DesireEvent is SMis instrumentation: the state of one undecided node in
// one round, classifying the golden rounds of Lemma 5.6.
type DesireEvent struct {
	Node         graph.NodeID
	Desire       float64 // p_r(v) entering the round
	EffectiveDeg float64 // δ_r(v) computed this round
	Decided      bool    // node decided this round
}

// Name implements core.NetworkStaticAlgorithm.
func (f *SMisFactory) Name() string { return "smis" }

// StabilizationTime implements core.NetworkStaticAlgorithm.
func (f *SMisFactory) StabilizationTime(n int) int {
	if f.Stabilization > 0 {
		return f.Stabilization
	}
	return DefaultMISWindow(n)
}

// Alpha implements core.NetworkStaticAlgorithm: SMis is network-static
// with respect to 2-neighborhoods.
func (f *SMisFactory) Alpha() int { return 2 }

// MessageBits declares encoded sizes. Marks are 2 bits. Desire messages
// are compact: p(v) only ever takes values 2^-k (k ≤ log₂(5n)) or exactly
// 1/(5n), so an exponent of ⌈log₂ log₂ 5n⌉+1 bits plus the candidate and
// floor flags suffices.
func (f *SMisFactory) MessageBits(m engine.SubMsg) int {
	if m.Kind == KindMark {
		return 2
	}
	expBits := ceilLog2(ceilLog2(5*f.N+1) + 2)
	return 2 + expBits + 2
}

// NewNode implements core.NetworkStaticAlgorithm.
func (f *SMisFactory) NewNode(v graph.NodeID) core.NodeInstance {
	return &smisNode{f: f, v: v, p: 0.5}
}

type smisNode struct {
	f *SMisFactory
	v graph.NodeID

	out       problems.Value
	p         float64 // desire level (frozen while decided)
	candidate bool
}

// pFloor returns the desire-level lower bound 1/(5n), or 0 when the
// ablation disables it.
func (s *smisNode) pFloor() float64 {
	if s.f.DisableDesireFloor {
		return 0
	}
	return 1.0 / (5.0 * float64(s.f.N))
}

// Start accepts an input configuration; desire level starts at 1/2 per
// Algorithm 5 (no communication round needed).
func (s *smisNode) Start(ctx *engine.Ctx, input problems.Value) {
	s.out = input
	s.p = 0.5
	s.candidate = false
}

// Broadcast implements the send half of Algorithm 5: MIS nodes send a
// mark; undecided nodes flip a p(v)-coin for candidacy and send
// (p(v), candidate); dominated nodes are silent.
func (s *smisNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	switch s.out {
	case problems.InMIS:
		return append(buf, engine.SubMsg{Kind: KindMark})
	case problems.Bot:
		st := ctx.Stream(prf.PurposeCandidate)
		s.candidate = st.Bernoulli(s.p)
		kind := KindDesire
		if s.candidate {
			kind = KindDesireCand
		}
		return append(buf, engine.SubMsg{Kind: kind, A: int64(math.Float64bits(s.p))})
	default:
		return buf
	}
}

// Process implements the receive half of Algorithm 5.
func (s *smisNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	mark := false
	otherCandidate := false
	delta := 0.0
	for _, m := range in {
		switch m.M.Kind {
		case KindMark:
			mark = true
		case KindDesire, KindDesireCand:
			delta += math.Float64frombits(uint64(m.M.A))
			otherCandidate = otherCandidate || m.M.Kind == KindDesireCand
		}
	}

	wasUndecided := s.out == problems.Bot
	if wasUndecided {
		// Update the desire level from the effective degree δ(v).
		if delta >= 2 {
			s.p = math.Max(s.p/2, s.pFloor())
		} else {
			s.p = math.Min(2*s.p, 0.5)
		}
	}

	// State transitions (lines 6-10).
	switch {
	case wasUndecided && mark:
		s.out = problems.Dominated
	case wasUndecided && !mark && s.candidate && !otherCandidate:
		s.out = problems.InMIS
	case s.out == problems.InMIS && mark:
		s.out = problems.Bot // two adjacent MIS nodes demote each other
	case s.out == problems.Dominated && !mark:
		s.out = problems.Bot // domination lost
	}

	if s.f.Probe != nil && wasUndecided {
		s.f.Probe(DesireEvent{
			Node:         s.v,
			Desire:       s.p,
			EffectiveDeg: delta,
			Decided:      s.out != problems.Bot,
		})
	}
}

// Output implements core.NodeInstance.
func (s *smisNode) Output() problems.Value { return s.out }

// Settled implements core.Settler: an isolated InMIS node hears no mark
// and stays in M. An isolated Dominated node loses its dominator and
// falls back to ⊥.
func (s *smisNode) Settled() bool { return s.out == problems.InMIS }

var _ core.Settler = (*smisNode)(nil)
