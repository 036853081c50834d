package coloring

import (
	"cmp"
	"math/bits"
	"slices"

	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Message kinds of the coloring algorithms.
const (
	// KindStart carries the input value φ_v in DColor's start round
	// (A = value, 0 for ⊥).
	KindStart uint8 = iota + 1
	// KindFixed announces a permanently chosen color (A = color).
	KindFixed
	// KindTentative announces this round's tentative color (A = color).
	KindTentative
)

// Event is the per-node per-round instrumentation record of DColor,
// feeding the Lemma 4.3 progress experiment (E4).
type Event struct {
	Node          graph.NodeID
	PaletteBefore int  // |P_v| entering the round
	Removed       int  // |Z_v|: colors deleted this round
	WasUncolored  bool // node was uncolored entering the round
	GotColored    bool // node became colored this round
}

// DColorFactory builds DColor instances (Algorithm 2). It implements
// core.DynamicAlgorithm: started in round j on a partial solution, all
// nodes are colored after T-1 rounds w.h.p. (Lemma 4.4), the output
// extends the input (A.1) and solves C_P on G^∩T and C_C on G^∪T (A.2,
// Lemma 4.1). The analysis holds even against adaptive offline
// adversaries (remark in Section 4.3).
type DColorFactory struct {
	// N is the universe size (the paper's n, known to all nodes).
	N int
	// Window overrides the default window size T (0 = default).
	Window int
	// Probe, if set, receives one Event per node per round. It is called
	// concurrently from engine workers and must be safe.
	Probe func(Event)
}

// Name implements core.DynamicAlgorithm.
func (f *DColorFactory) Name() string { return "dcolor" }

// DefaultColoringWindow is the practical window size T(n) used for the
// coloring algorithms: comfortably above the measured all-colored time of
// the basic randomized algorithm (≈ log₂ n + O(1) rounds; see experiment
// E1), while staying Θ(log n) as the theory requires.
func DefaultColoringWindow(n int) int {
	return 2*ceilLog2(n+1) + 8
}

func ceilLog2(x int) int {
	if x <= 1 {
		return 0
	}
	return bits.Len(uint(x - 1))
}

// WindowSize implements core.DynamicAlgorithm.
func (f *DColorFactory) WindowSize(n int) int {
	if f.Window > 0 {
		return f.Window
	}
	return DefaultColoringWindow(n)
}

// MessageBits declares the encoded size of a message: a 2-bit kind plus a
// color of ⌈log₂(n+2)⌉ bits — O(log n) per message, matching the remark
// in Section 2.
func (f *DColorFactory) MessageBits(m engine.SubMsg) int {
	return 2 + ceilLog2(f.N+2)
}

// NewNode implements core.DynamicAlgorithm.
func (f *DColorFactory) NewNode(v graph.NodeID) core.NodeInstance {
	return &dcolorNode{f: f, v: v}
}

// blockStreakCap is the streak capacity NewNodes carves for each instance
// of a block from one array the block shares. An instance whose start
// round has more senders regrows its streak table on the heap.
const blockStreakCap = 12

// NewNodes implements core.DynamicAlgorithm: the k instances share one
// allocation, their palettes' first words are inline, and their initial
// streak tables share one more.
func (f *DColorFactory) NewNodes(v graph.NodeID, k int, dst []core.NodeInstance) []core.NodeInstance {
	block := make([]dcolorNode, k)
	streaks := make([]streakEntry, k*blockStreakCap)
	for i := range block {
		lo, hi := i*blockStreakCap, (i+1)*blockStreakCap
		block[i] = dcolorNode{f: f, v: v, streak: streaks[lo:lo:hi]}
		dst = append(dst, &block[i])
	}
	return dst
}

// dcolorNode is the per-node state of one DColor instance.
type dcolorNode struct {
	f *DColorFactory
	v graph.NodeID

	out problems.Value
	pal palette
	// streak holds, for each of the start round's senders u, the last
	// age at which u had broadcast in every round of this instance so
	// far; u is an intersection-graph neighbor in the current round iff
	// that age is age-1. The entries are sorted by sender and fixed for
	// the instance's lifetime, so a merge walk over a sender-sorted inbox
	// finds every entry without hashing. The slice outlives re-Starts —
	// the per-round intersection allocates nothing.
	streak    []streakEntry
	age       int32
	started   bool
	tentative int64
}

// Start records the input and resets the instance for a new run, keeping
// its streak and palette storage; the start round's communication
// (sending φ_v, initializing the palette from the neighbors' inputs)
// happens in the instance's first Broadcast/Process round, costing the
// one communication round Algorithm 2 budgets for it.
func (d *dcolorNode) Start(ctx *engine.Ctx, input problems.Value) {
	d.out = input
	d.pal.clear()
	d.streak = d.streak[:0]
	d.age = 0
	d.started = false
	d.tentative = 0
}

// Broadcast implements the send half of Algorithm 2.
func (d *dcolorNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if !d.started {
		return append(buf, engine.SubMsg{Kind: KindStart, A: int64(d.out)})
	}
	if d.out != problems.Bot {
		return append(buf, engine.SubMsg{Kind: KindFixed, A: int64(d.out)})
	}
	s := ctx.Stream(prfTentative)
	d.tentative = d.pal.pick(&s)
	return append(buf, engine.SubMsg{Kind: KindTentative, A: d.tentative})
}

// Process implements the receive half of Algorithm 2.
func (d *dcolorNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	if !d.started {
		// Start round: initialize the palette with [d_j(v)+1] minus the
		// neighbors' input colors, and the intersection-neighbor streaks
		// with the current neighbors.
		d.started = true
		d.age = 1
		d.pal.reset(deg + 1)
		st := d.streak[:0]
		for _, m := range in {
			if n := len(st); n == 0 || st[n-1].u != m.From {
				st = append(st, streakEntry{u: m.From, last: 1})
			}
			if d.out == problems.Bot && m.M.Kind == KindStart && m.M.A != 0 {
				d.pal.remove(m.M.A)
			}
		}
		if !slices.IsSortedFunc(st, streakEntry.cmp) {
			slices.SortFunc(st, streakEntry.cmp)
			st = slices.CompactFunc(st, func(a, b streakEntry) bool { return a.u == b.u })
		}
		d.streak = st
		return
	}

	palBefore := d.pal.len()
	removed := 0
	wasUncolored := d.out == problems.Bot

	// Restrict communication to the intersection graph: a sender counts
	// only if it has been a neighbor in every round since the start,
	// i.e. its streak reaches the previous round (stale entries never
	// match again, so no per-round set rebuild is needed). The engine
	// delivers senders in ascending order, so one cursor walks the keys
	// alongside the inbox; a sender out of order restarts the walk.
	prev := d.age
	d.age++
	tentativeClash := false
	st := d.streak
	k := 0
	for _, m := range in {
		if k > 0 && st[k-1].u >= m.From {
			k = 0
		}
		for k < len(st) && st[k].u < m.From {
			k++
		}
		if k == len(st) || st[k].u != m.From || st[k].last != prev {
			continue
		}
		st[k].last = prev + 1
		switch m.M.Kind {
		case KindFixed:
			if d.pal.contains(m.M.A) {
				d.pal.remove(m.M.A)
				removed++
			}
		case KindTentative:
			if m.M.A == d.tentative {
				tentativeClash = true
			}
		}
	}

	if wasUncolored {
		if d.pal.contains(d.tentative) && !tentativeClash {
			d.out = problems.Value(d.tentative)
		}
	}

	if d.f.Probe != nil {
		d.f.Probe(Event{
			Node:          d.v,
			PaletteBefore: palBefore,
			Removed:       removed,
			WasUncolored:  wasUncolored,
			GotColored:    wasUncolored && d.out != problems.Bot,
		})
	}
}

// streakEntry is one start-round sender's streak: the sender and the last
// age up to which it broadcast in every round. Key and value share a
// cache line.
type streakEntry struct {
	u    graph.NodeID
	last int32
}

func (e streakEntry) cmp(o streakEntry) int { return cmp.Compare(e.u, o.u) }

// Output implements core.NodeInstance.
func (d *dcolorNode) Output() problems.Value { return d.out }

// PaletteLen exposes |P_v| for the Lemma 4.2 invariant test (palette
// never smaller than uncolored intersection neighbors + 1). Test-support
// API.
func (d *dcolorNode) PaletteLen() int { return d.pal.len() }
