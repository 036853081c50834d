// Package verify contains the round-by-round checkers that turn the
// paper's guarantees into machine-checked assertions:
//
//   - TDynamic verifies that an output vector is a T-dynamic solution in
//     every round (packing on G^∩T, covering on G^∪T, no ⊥ on V^∩T) —
//     the property required of the combined algorithm by Theorem 1.1(1).
//   - Partial verifies property B.1 of network-static algorithms: the
//     output is a partial solution for the current graph G_r every round.
//   - Stability verifies the locally-static properties (B.2 and
//     Theorem 1.1(2)): whenever the α-ball of a node has been static for
//     `Wait` rounds, its output must not change.
//
// TDynamic is delta-driven end to end. Its one round method, Feed,
// consumes the engine's consolidated round-delta view (engine.RoundDelta,
// from RoundInfo.Delta) whole: the sorted topology diff goes into a
// delta-fed sliding window (dyngraph.Window.ObserveEdgeDelta) and the
// changed-node feed into the problems.Tracker violation maintainers, so a
// verified round costs O((diff+changes)·Δ) — nothing scales with n or
// |E_r|, no CSR graph is ever materialized and no edge or output scan
// runs. The materializing reference checker it is property-tested against
// — including on a real engine run — lives in test support
// (internal/verify/verifytest).
//
// Input-buffer rules follow the producers' pooling contracts: every
// slice argument (graph, diff, wake, outputs, changed) is only read
// during the call, so the engine's pooled RoundInfo buffers can be
// passed straight through.
//
// The checkers are part of the library (not the tests) so that every data
// point produced by the experiment harness (internal/experiments) is a
// verified guarantee.
package verify

import (
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// TDynamicReport summarizes one round of T-dynamic checking.
type TDynamicReport struct {
	Round             int
	CoreNodes         int
	BotCore           int                  // core nodes without output
	PackingViolations []problems.Violation // on G^∩T
	CoverViolations   []problems.Violation // on G^∪T
}

// Valid reports whether the round satisfied the T-dynamic condition.
func (r TDynamicReport) Valid() bool {
	return r.BotCore == 0 && len(r.PackingViolations) == 0 && len(r.CoverViolations) == 0
}

// TDynamic verifies T-dynamic solutions (Section 1.1 / Section 3): after
// each round r the output must satisfy the packing property on G^∩T_r and
// the covering property on G^∪T_r, with every node of V^∩T_r decided.
type TDynamic struct {
	pc     problems.PC
	window *dyngraph.Window

	// Incremental state: trackers mirror the packing condition on G^∩T
	// and the covering condition on G^∪T; prevOut is last round's output
	// snapshot for diffing; coreCount/botCore mirror |V^∩T| and its
	// undecided subset.
	pt        problems.Tracker
	ct        problems.Tracker
	prevOut   []problems.Value
	coreCount int
	botCore   int

	rounds        int
	invalidRounds int
	totalPacking  int
	totalCover    int
	totalBotCore  int

	// Delta-checkpoint tracking (see checkpoint.go), enabled by the first
	// NoteCheckpoint call: which prevOut entries moved since the last
	// noted chain record. Checkers outside a chain never pay for it.
	track        bool
	outDirty     []bool
	outDirtyList []graph.NodeID
}

// NewTDynamic creates an incremental checker with window size t over n
// nodes. Violation state is maintained from window deltas and output
// diffs.
func NewTDynamic(pc problems.PC, t, n int) *TDynamic {
	return &TDynamic{
		pc:      pc,
		window:  dyngraph.NewWindow(t, n),
		pt:      pc.P.NewTracker(n),
		ct:      pc.C.NewTracker(n),
		prevOut: make([]problems.Value, n),
	}
}

// Window exposes the underlying sliding window (shared, read-only use).
func (c *TDynamic) Window() *dyngraph.Window { return c.window }

// Feed ingests one round's consolidated delta view — exactly
// engine.RoundInfo.Delta() — and checks the T-dynamic condition. Its
// topology arrives as the sorted edge diff against the previous round,
// and Changed must cover every node whose entry in Outputs differs from
// the previous round's (all non-⊥ nodes on the first call) — exactly the
// contract of the engine's RoundInfo.Changed feed when the checker
// observes every round from round 1. Changed entries whose output is in
// fact unchanged, and duplicates, are tolerated and skipped. No graph is
// needed, so the round costs O((|adds|+|removes|+|changed|)·Δ),
// independent of n and |E_r|. The delta's slices are only read during the
// call, so the engine's pooled buffers pass straight through.
func (c *TDynamic) Feed(d engine.RoundDelta) TDynamicReport {
	return c.applyRound(c.window.ObserveEdgeDelta(d.EdgeAdds, d.EdgeRemoves, d.Wake), d.Outputs, d.Changed)
}

// applyRound folds one round's window delta and output diff into the
// violation trackers and assembles the report.
func (c *TDynamic) applyRound(d *dyngraph.Delta, out []problems.Value, changed []graph.NodeID) TDynamicReport {
	for _, k := range d.InterAdded {
		u, v := k.Nodes()
		c.pt.EdgeAdded(u, v)
	}
	for _, k := range d.InterRemoved {
		u, v := k.Nodes()
		c.pt.EdgeRemoved(u, v)
	}
	for _, k := range d.UnionAdded {
		u, v := k.Nodes()
		c.ct.EdgeAdded(u, v)
	}
	for _, k := range d.UnionRemoved {
		u, v := k.Nodes()
		c.ct.EdgeRemoved(u, v)
	}
	// Core arrivals are evaluated against last round's outputs first; the
	// output diff below re-evaluates any node that also changed output
	// this round, so the final state reflects the current snapshot.
	for _, v := range d.CoreEntered {
		c.coreCount++
		if c.prevOut[v] == problems.Bot {
			c.botCore++
		}
		c.pt.Activate(v)
		c.ct.Activate(v)
	}
	for _, v := range changed {
		val := out[v]
		if val == c.prevOut[v] {
			continue
		}
		c.pt.OutputChanged(v, val)
		c.ct.OutputChanged(v, val)
		if c.window.InCore(v) {
			if c.prevOut[v] == problems.Bot {
				c.botCore--
			} else if val == problems.Bot {
				c.botCore++
			}
		}
		c.prevOut[v] = val
		if c.track && !c.outDirty[v] {
			c.outDirty[v] = true
			c.outDirtyList = append(c.outDirtyList, v)
		}
	}
	rep := TDynamicReport{Round: d.Round, CoreNodes: c.coreCount, BotCore: c.botCore}
	if c.coreCount > 0 {
		rep.PackingViolations = c.pt.Violations()
		rep.CoverViolations = c.ct.Violations()
	}
	c.tally(&rep)
	return rep
}

func (c *TDynamic) tally(rep *TDynamicReport) {
	c.rounds++
	if !rep.Valid() {
		c.invalidRounds++
	}
	c.totalPacking += len(rep.PackingViolations)
	c.totalCover += len(rep.CoverViolations)
	c.totalBotCore += rep.BotCore
}

// Totals reports aggregate counts over all observed rounds.
func (c *TDynamic) Totals() (rounds, invalidRounds, packing, cover, botCore int) {
	return c.rounds, c.invalidRounds, c.totalPacking, c.totalCover, c.totalBotCore
}

// PartialReport summarizes one round of partial-solution checking.
type PartialReport struct {
	Round      int
	Violations []problems.Violation
}

// Valid reports whether the output was a partial solution.
func (r PartialReport) Valid() bool { return len(r.Violations) == 0 }

// Partial verifies property B.1: the output is a partial solution for
// (P, C) in the current graph G_r at the end of every round.
type Partial struct {
	pc            problems.PC
	round         int
	rounds        int
	invalidRounds int
	total         int
}

// NewPartial creates a B.1 checker.
func NewPartial(pc problems.PC) *Partial { return &Partial{pc: pc} }

// Observe checks round r's output against the current graph.
func (c *Partial) Observe(g *graph.Graph, out []problems.Value) PartialReport {
	c.round++
	rep := PartialReport{Round: c.round}
	rep.Violations = append(rep.Violations, c.pc.P.CheckPartial(g, out)...)
	rep.Violations = append(rep.Violations, c.pc.C.CheckPartial(g, out)...)
	c.rounds++
	if !rep.Valid() {
		c.invalidRounds++
	}
	c.total += len(rep.Violations)
	return rep
}

// Totals reports aggregate counts over all observed rounds.
func (c *Partial) Totals() (rounds, invalidRounds, violations int) {
	return c.rounds, c.invalidRounds, c.total
}

// StabilityViolation reports an output change inside a frozen zone.
type StabilityViolation struct {
	Node        graph.NodeID
	Round       int // round of the offending change
	StaticSince int // first round of the current static streak of the ball
	Old, New    problems.Value
}

// Stability verifies locally-static guarantees: if the α-ball of node v
// (the induced subgraph on N^α(v), tracked via topology fingerprints) has
// been static in rounds [s, r] and r > s + Wait, the output of v must not
// change in round r. With Wait = T1 + T2 this is Theorem 1.1(2); with
// Wait = T it is property B.2 of a network-static algorithm.
//
// A node's streak also starts at its wake round (a sleeping node has no
// topology to be static with respect to).
type Stability struct {
	Alpha int
	Wait  int

	n           int
	round       int
	prevFP      []uint64
	staticSince []int // first round of current static streak; -1 before wake
	prevOut     []problems.Value
	awake       []bool
	seen        []bool // node has been processed at least once since waking

	changes    int // total output changes observed (stability metric)
	violations []StabilityViolation
}

// NewStability creates a stability checker for α-balls and the given wait.
func NewStability(n, alpha, wait int) *Stability {
	s := &Stability{Alpha: alpha, Wait: wait, n: n,
		prevFP:      make([]uint64, n),
		staticSince: make([]int, n),
		prevOut:     make([]problems.Value, n),
		awake:       make([]bool, n),
		seen:        make([]bool, n),
	}
	for i := range s.staticSince {
		s.staticSince[i] = -1
	}
	return s
}

// Observe ingests one round. wake lists newly awake nodes.
func (s *Stability) Observe(g *graph.Graph, wake []graph.NodeID, out []problems.Value) []StabilityViolation {
	s.round++
	r := s.round
	for _, v := range wake {
		if !s.awake[v] {
			s.awake[v] = true
			s.staticSince[v] = r
			s.prevFP[v] = 0
		}
	}
	var roundViolations []StabilityViolation
	for v := 0; v < s.n; v++ {
		if !s.awake[v] {
			continue
		}
		fp := graph.BallFingerprint(g, graph.NodeID(v), s.Alpha)
		firstRound := false
		if !s.seen[v] {
			// First awake round: start the streak with this topology and
			// adopt the initial output without counting it as a change.
			s.seen[v] = true
			s.prevFP[v] = fp
			firstRound = true
		} else if fp != s.prevFP[v] {
			s.prevFP[v] = fp
			s.staticSince[v] = r
		}
		if !firstRound && out[v] != s.prevOut[v] {
			s.changes++
			if r > s.staticSince[v]+s.Wait {
				viol := StabilityViolation{
					Node: graph.NodeID(v), Round: r,
					StaticSince: s.staticSince[v],
					Old:         s.prevOut[v], New: out[v],
				}
				roundViolations = append(roundViolations, viol)
				s.violations = append(s.violations, viol)
			}
		}
		s.prevOut[v] = out[v]
	}
	return roundViolations
}

// Changes returns the total number of output-change events observed, a
// stability metric used to compare Concat against the pipelined-restart
// baseline (experiment E9).
func (s *Stability) Changes() int { return s.changes }

// Violations returns all recorded stability violations.
func (s *Stability) Violations() []StabilityViolation { return s.violations }

// ConflictEdges returns the edges of g whose endpoints share a non-Bot
// output — used by experiment E2 to track conflicts caused by fresh edges.
func ConflictEdges(g *graph.Graph, out []problems.Value) []graph.EdgeKey {
	var bad []graph.EdgeKey
	g.EachEdge(func(u, v graph.NodeID) {
		if out[u] != problems.Bot && out[u] == out[v] {
			bad = append(bad, graph.MakeEdgeKey(u, v))
		}
	})
	return bad
}
