// Package mis implements the paper's MIS algorithms:
//
//   - DMis (Algorithm 4): the O(log n)-dynamic algorithm — a pipelined
//     variant of Luby's algorithm communicating on the intersection graph
//     of all rounds since its start; decided nodes never revert. Its
//     analysis (Lemma 5.1/5.2) requires a 2-oblivious adversary.
//   - SMis (Algorithm 5): the (O(log n), 2)-network-static algorithm — a
//     modified, pipelined version of Ghaffari's algorithm whose nodes can
//     leave the MIS and become undecided again, with desire-levels
//     bounded below by 1/(5n) (the paper's crucial modification for the
//     dynamic setting, footnote 11).
//
// NewMIS composes them through the framework combiner, yielding the
// algorithm of Corollary 1.3. On a static graph DMis degenerates to
// Luby's algorithm and SMis to (modified) Ghaffari — NewLuby and
// NewGhaffari expose them under those names for the baseline experiments.
package mis

import (
	"math/bits"
	"slices"

	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Message kinds of the MIS algorithms.
const (
	// KindMark is sent by MIS nodes to (intersection/current) neighbors.
	KindMark uint8 = iota + 1
	// KindAlpha carries DMis's per-round random number (A = float64 bits).
	KindAlpha
	// KindDesire carries the desire level of an SMis node that is not a
	// candidate this round (A = float64 bits of p(v)).
	KindDesire
	// KindPresence is a one-time beacon sent by Dominated-input DMis
	// nodes in their instance's first round. It keeps them in their
	// neighbors' intersection-neighbor sets so that, should the input
	// sanitization return them to the competition, adjacent revived
	// nodes still see each other's random numbers (otherwise two revived
	// neighbors could both become local minima and both join M).
	KindPresence
	// KindDesireCand is KindDesire from a node that is a candidate this
	// round.
	KindDesireCand
)

// DefaultMISWindow is the practical window size T(n) for the MIS
// algorithms: above the measured all-decided time of pipelined Luby under
// churn (≈ 2·log₂ n; Lemma 5.4 gives O(log n)) with safety margin.
func DefaultMISWindow(n int) int {
	return 3*ceilLog2(n+1) + 10
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// DMisFactory builds DMis instances (Algorithm 4). It implements
// core.DynamicAlgorithm: input-extending (nodes only ever move from
// undecided to InMIS/Dominated) and finalizing w.h.p. within T-1 rounds
// against 2-oblivious adversaries (Lemma 5.1). The independent-set half
// of A.2 holds deterministically; the domination half w.h.p.
type DMisFactory struct {
	// N is the universe size.
	N int
	// Window overrides the default window size T (0 = default).
	Window int
	// AlphaBits truncates the random words exchanged between undecided
	// nodes to the given width (0 = full 64 bits). The paper remarks that
	// all algorithms can run with poly log n-bit messages; 2⌈log₂n⌉+c
	// bits make per-round per-edge collisions polynomially rare, and the
	// deterministic node-id tie-break keeps the algorithm correct under
	// collisions regardless (two adjacent nodes can never both join M) —
	// collisions only cost the occasional stalled pair one extra round.
	AlphaBits int
}

// alphaMask returns the truncation mask for the configured width.
func (f *DMisFactory) alphaMask() uint64 {
	if f.AlphaBits <= 0 || f.AlphaBits >= 64 {
		return ^uint64(0)
	}
	return ^uint64(0) << uint(64-f.AlphaBits)
}

// Name implements core.DynamicAlgorithm.
func (f *DMisFactory) Name() string { return "dmis" }

// WindowSize implements core.DynamicAlgorithm.
func (f *DMisFactory) WindowSize(n int) int {
	if f.Window > 0 {
		return f.Window
	}
	return DefaultMISWindow(n)
}

// MessageBits declares encoded sizes: marks and presence beacons are 2
// bits; alpha messages carry the configured random-word width (default
// the full 64 bits, honestly accounted; set AlphaBits to 2⌈log₂n⌉+4 for
// the poly log n regime of the Section 2 remark).
func (f *DMisFactory) MessageBits(m engine.SubMsg) int {
	if m.Kind == KindMark || m.Kind == KindPresence {
		return 2
	}
	bits := f.AlphaBits
	if bits <= 0 || bits > 64 {
		bits = 64
	}
	return 2 + bits
}

// NewNode implements core.DynamicAlgorithm.
func (f *DMisFactory) NewNode(v graph.NodeID) core.NodeInstance {
	return &dmisNode{v: v, mask: f.alphaMask()}
}

// NewNodes implements core.DynamicAlgorithm: the k instances share one
// allocation.
func (f *DMisFactory) NewNodes(v graph.NodeID, k int, dst []core.NodeInstance) []core.NodeInstance {
	block := make([]dmisNode, k)
	mask := f.alphaMask()
	for i := range block {
		block[i] = dmisNode{v: v, mask: mask}
		dst = append(dst, &block[i])
	}
	return dst
}

type dmisNode struct {
	v graph.NodeID

	out problems.Value
	// streak holds, for each sender u heard so far, the last age at
	// which u had broadcast in every round of this instance; u is an
	// intersection-graph neighbor in the current round iff that age is
	// age-1. Scanned linearly: the per-message lookup is on the hottest
	// engine path and at local-algorithm degrees a scan of a few
	// contiguous entries beats hashing. The slice outlives re-Starts —
	// the per-round intersection allocates nothing.
	streak []streakEntry
	age    int    // rounds processed
	provD  bool   // Dominated input, not yet re-witnessed (rounds 1-2)
	alpha  uint64 // this round's random word (valid while undecided)
	mask   uint64 // alpha truncation mask (AlphaBits)
}

// streakEntry is one sender's streak: the sender and the last age up to
// which it broadcast in every round. Key and value share a cache line.
type streakEntry struct {
	u    graph.NodeID
	last int32
}

// Start records the input configuration (M, D) and resets the instance
// for a new run, keeping its streak storage; Algorithm 4 needs no start
// communication round.
func (d *dmisNode) Start(ctx *engine.Ctx, input problems.Value) {
	d.out = input
	d.provD = input == problems.Dominated
	d.streak = d.streak[:0]
	d.age = 0
	d.alpha = 0
}

// Broadcast implements the send half of Algorithm 4: MIS nodes send a
// mark; undecided nodes send a fresh random number; dominated nodes are
// silent — except that provisional Dominated inputs beacon their
// presence during the two sanitization rounds (see KindPresence and the
// input-sanitization notes in Process).
func (d *dmisNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	switch d.out {
	case problems.InMIS:
		return append(buf, engine.SubMsg{Kind: KindMark})
	case problems.Bot:
		s := ctx.Stream(prf.PurposeLubyAlpha)
		d.alpha = s.Uint64() & d.mask
		return append(buf, engine.SubMsg{Kind: KindAlpha, A: int64(d.alpha)})
	default:
		if d.provD {
			return append(buf, engine.SubMsg{Kind: KindPresence})
		}
		return buf
	}
}

// Quiescent implements engine.Quiescer: a confirmed Dominated node is
// terminal — Process never leaves a non-⊥ output (decided nodes never
// revert in DMis) and Broadcast is forever silent once the provisional
// flag has cleared — so the engine may stop running it. InMIS nodes are
// decided too but beacon their mark every round, and provisional
// Dominated nodes still beacon presence, so neither may be skipped.
func (d *dmisNode) Quiescent() bool {
	return d.out == problems.Dominated && !d.provD
}

// Settled implements core.Settler: an isolated instance hears no mark,
// so an InMIS node stays in M, and decided nodes never revert — except a
// provisional Dominated input, which reverts to ⊥ when its second round
// brings no mark.
func (d *dmisNode) Settled() bool {
	return d.out == problems.InMIS || (d.out == problems.Dominated && !d.provD)
}

var _ core.Settler = (*dmisNode)(nil)

// less compares (alpha, id) pairs lexicographically — the id breaks the
// (probability ~2⁻⁶⁴) ties so that no two adjacent nodes can ever join M
// in the same round, making the independence half of A.2 deterministic.
func less(a uint64, av graph.NodeID, b uint64, bv graph.NodeID) bool {
	if a != b {
		return a < b
	}
	return av < bv
}

// Process implements the receive half of Algorithm 4, restricted to the
// intersection graph.
func (d *dmisNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	if d.age == 0 {
		// First executed round: the intersection graph is the current
		// graph; senders are exactly the participating neighbors.
		// (Dominated nodes are silent, but they also never influence
		// anyone, so omitting them from the known set is harmless.)
		d.streak = slices.Grow(d.streak, len(in))
	}
	prev := int32(d.age)
	mark := false
	isMin := true
	for _, m := range in {
		// Intersection-neighbor test: the sender must have broadcast in
		// every round so far (stale streak entries never match again;
		// an absent entry reads as streak 0).
		si := -1
		for i := range d.streak {
			if d.streak[i].u == m.From {
				si = i
				break
			}
		}
		if prev > 0 && (si < 0 || d.streak[si].last != prev) {
			continue
		}
		if si < 0 {
			d.streak = append(d.streak, streakEntry{m.From, prev + 1})
		} else {
			d.streak[si].last = prev + 1
		}
		switch m.M.Kind {
		case KindMark:
			mark = true
		case KindAlpha:
			if less(uint64(m.M.A), m.From, d.alpha, d.v) {
				isMin = false
			}
		}
	}
	d.age++

	// Input sanitization (reproduction note). A partial solution handed to
	// a DMis instance can be slightly invalid: the SMis race leaves
	// occasional Dominated nodes without a live dominator, and mid-
	// pipeline dynamic algorithms in the triple combiner (core.Chain)
	// produce outputs that are only valid under limited dynamics, so
	// adjacent InMIS inputs are possible too. The first two rounds
	// therefore re-witness the input:
	//
	//   - round 1: an InMIS input hearing a mark is half of an invalid
	//     adjacent pair — both demote and re-compete. From round 2 on,
	//     every node in M is permanent, so marks heard in rounds >= 2
	//     certify a permanent dominator.
	//   - rounds 1-2: Dominated inputs are provisional (they beacon their
	//     presence); they stay Dominated only if a round-2 mark proves a
	//     permanent dominator, and re-compete otherwise.
	//   - round 1: undecided nodes ignore marks (the sender might demote
	//     this very round) and, having heard one, also skip joining M.
	//
	// Valid inputs are unaffected (their InMIS nodes hear no marks; their
	// Dominated nodes keep being marked), preserving property A.1; the
	// extra round is absorbed by the window's margin.
	switch {
	case d.age == 1 && d.out == problems.InMIS && mark:
		d.out = problems.Bot
		return
	case d.provD:
		if d.age >= 2 {
			d.provD = false
			if !mark {
				d.out = problems.Bot
			}
		}
		return
	case d.out != problems.Bot:
		return // decided nodes never revert in DMis
	case d.age == 1 && mark:
		return // defer: the marker might demote this round
	}
	switch {
	case mark:
		d.out = problems.Dominated
	case isMin:
		d.out = problems.InMIS
	}
}

// Output implements core.NodeInstance.
func (d *dmisNode) Output() problems.Value { return d.out }

// ExpectedDecayBound is the 2/3 bound of Lemma 5.2, exported for the
// experiment harness.
const ExpectedDecayBound = 2.0 / 3.0
