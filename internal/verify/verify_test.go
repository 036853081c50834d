package verify_test

import (
	"reflect"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
	"dynlocal/internal/verify/verifytest"
)

func allNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// graphChecker feeds hand-built round graphs and output snapshots into a
// TDynamic checker through a verifytest.GraphFeed.
type graphChecker struct {
	*verify.TDynamic
	feed verifytest.GraphFeed
}

func newGraphChecker(pc problems.PC, t, n int) *graphChecker {
	return &graphChecker{TDynamic: verify.NewTDynamic(pc, t, n)}
}

// Observe checks one hand-built round.
func (c *graphChecker) Observe(g *graph.Graph, wake []graph.NodeID, out []problems.Value) verify.TDynamicReport {
	return c.Feed(c.feed.Next(g, wake, out))
}

func TestTDynamicAcceptsValidColoring(t *testing.T) {
	// Static P4 with a fixed proper coloring: valid every round.
	const T = 3
	g := graph.Path(4)
	out := []problems.Value{1, 2, 1, 2}
	c := newGraphChecker(problems.Coloring(), T, 4)
	for r := 1; r <= 8; r++ {
		var wake []graph.NodeID
		if r == 1 {
			wake = allNodes(4)
		}
		rep := c.Observe(g, wake, out)
		if !rep.Valid() {
			t.Fatalf("round %d flagged: %+v", r, rep)
		}
		if r < T && rep.CoreNodes != 0 {
			t.Fatalf("round %d: core before window fills: %d", r, rep.CoreNodes)
		}
		if r >= T && rep.CoreNodes != 4 {
			t.Fatalf("round %d: core = %d, want 4", r, rep.CoreNodes)
		}
	}
	rounds, invalid, packing, cover, bot := c.Totals()
	if rounds != 8 || invalid != 0 || packing != 0 || cover != 0 || bot != 0 {
		t.Fatalf("totals wrong: %d %d %d %d %d", rounds, invalid, packing, cover, bot)
	}
}

func TestTDynamicPackingOnIntersectionOnly(t *testing.T) {
	// Conflict edge present only occasionally stays out of G^∩T: no
	// packing violation; but it enters G^∪T, which matters for covering
	// (range) only, not properness.
	const T = 3
	base := graph.Path(4)
	conflictG := graph.Union(base, graph.FromEdges(4, []graph.EdgeKey{graph.MakeEdgeKey(0, 2)}))
	out := []problems.Value{1, 2, 1, 2} // 0 and 2 share color 1
	c := newGraphChecker(problems.Coloring(), T, 4)
	seq := []*graph.Graph{base, base, base, conflictG, base, base}
	for r, g := range seq {
		var wake []graph.NodeID
		if r == 0 {
			wake = allNodes(4)
		}
		rep := c.Observe(g, wake, out)
		if len(rep.PackingViolations) != 0 {
			t.Fatalf("round %d: transient edge caused packing violation: %v", r+1, rep.PackingViolations)
		}
	}
	// Now keep the conflict edge for T rounds: packing must fire.
	var lastRep verify.TDynamicReport
	for i := 0; i < T; i++ {
		lastRep = c.Observe(conflictG, nil, out)
	}
	if len(lastRep.PackingViolations) == 0 {
		t.Fatal("persistent conflict edge not flagged on intersection graph")
	}
}

func TestTDynamicCoveringOnUnion(t *testing.T) {
	// A color too large for the union degree must be flagged even if the
	// current degree would allow... the opposite: color valid for current
	// graph but exceeding nothing. Construct: node 0 colored 2 with degree
	// 1 in every round: limit = 2 -> fine. Then isolate node 0: current
	// degree 0, but union still has the edge for T rounds -> fine; after
	// the edge expires from the union, limit = 1 -> violation.
	const T = 3
	withEdge := graph.FromEdges(2, []graph.EdgeKey{graph.MakeEdgeKey(0, 1)})
	empty := graph.Empty(2)
	out := []problems.Value{2, 1}
	c := newGraphChecker(problems.Coloring(), T, 2)
	c.Observe(withEdge, allNodes(2), out)
	c.Observe(withEdge, nil, out)
	c.Observe(withEdge, nil, out)
	rep := c.Observe(empty, nil, out) // union still has the edge
	if len(rep.CoverViolations) != 0 {
		t.Fatalf("covering flagged while edge in union: %v", rep.CoverViolations)
	}
	c.Observe(empty, nil, out)
	rep = c.Observe(empty, nil, out) // edge expired: d∪ = 0, limit 1 < 2
	if len(rep.CoverViolations) == 0 {
		t.Fatal("covering violation missed after union expiry")
	}
}

func TestTDynamicBotCoreCounted(t *testing.T) {
	const T = 2
	g := graph.Empty(3)
	out := []problems.Value{problems.Bot, 1, 1}
	c := newGraphChecker(problems.Coloring(), T, 3)
	c.Observe(g, allNodes(3), out)
	rep := c.Observe(g, nil, out)
	if rep.BotCore != 1 || rep.Valid() {
		t.Fatalf("BotCore = %d, valid = %v", rep.BotCore, rep.Valid())
	}
	// Bot nodes are not double-reported as packing/covering violations.
	if len(rep.PackingViolations) != 0 || len(rep.CoverViolations) != 0 {
		t.Fatalf("Bot double-reported: %+v", rep)
	}
}

func TestTDynamicMIS(t *testing.T) {
	const T = 2
	g := graph.Cycle(4)
	good := []problems.Value{problems.InMIS, problems.Dominated, problems.InMIS, problems.Dominated}
	c := newGraphChecker(problems.MIS(), T, 4)
	c.Observe(g, allNodes(4), good)
	rep := c.Observe(g, nil, good)
	if !rep.Valid() {
		t.Fatalf("valid MIS flagged: %+v", rep)
	}
	bad := []problems.Value{problems.InMIS, problems.InMIS, problems.Dominated, problems.Dominated}
	c2 := newGraphChecker(problems.MIS(), T, 4)
	c2.Observe(g, allNodes(4), bad)
	rep = c2.Observe(g, nil, bad)
	if len(rep.PackingViolations) == 0 {
		t.Fatal("adjacent MIS nodes not flagged")
	}
}

// advView is a minimal adversary.View for driving adversaries without the
// engine: it tracks the round and the awake set.
type advView struct {
	round int
	n     int
	awake []bool
}

func (v *advView) Round() int                       { return v.round }
func (v *advView) N() int                           { return v.n }
func (v *advView) Awake(id graph.NodeID) bool       { return v.awake[id] }
func (v *advView) DelayedOutputs() []problems.Value { return nil }

// tally aggregates reports the way TDynamic.Totals does.
type tally struct{ rounds, invalid, packing, cover, botCore int }

func (t *tally) add(rep verify.TDynamicReport) {
	t.rounds++
	if !rep.Valid() {
		t.invalid++
	}
	t.packing += len(rep.PackingViolations)
	t.cover += len(rep.CoverViolations)
	t.botCore += rep.BotCore
}

// TestTDynamicIncrementalMatchesOracle drives the incremental checker
// and the materializing oracle (verifytest.Oracle) through identical
// adversarial schedules with violation-heavy random outputs (⊥ flips,
// invalid values, conflicts) and asserts the per-round TDynamicReports
// are bit-identical, including violation order and reason strings. Two
// incremental checkers run: one is fed the adversary's edge diff with the
// raw mutation log as its changed list — duplicates and no-op rewrites
// included — pinning the documented tolerance for over-approximate feeds;
// the other is fed exact deltas derived from the round graphs and output
// snapshots by verifytest.GraphFeed.
func TestTDynamicIncrementalMatchesOracle(t *testing.T) {
	const n = 64
	const T = 5
	const rounds = 4*T + 30
	mkBase := func(seed uint64) *graph.Graph {
		return graph.GNP(n, 6.0/float64(n), prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	}
	schedules := []struct {
		name string
		mk   func(seed uint64) adversary.Adversary
	}{
		{"churn", func(seed uint64) adversary.Adversary {
			return &adversary.Churn{Base: mkBase(seed), Add: 6, Del: 6, Seed: seed + 1}
		}},
		{"edge-markov", func(seed uint64) adversary.Adversary {
			return &adversary.EdgeMarkov{Footprint: mkBase(seed), POn: 0.3, POff: 0.3, Seed: seed + 1}
		}},
		{"local-static", func(seed uint64) adversary.Adversary {
			base := mkBase(seed)
			return &adversary.LocalStatic{
				Inner:     &adversary.Churn{Base: base, Add: 8, Del: 8, Seed: seed + 1},
				Base:      base,
				Protected: []graph.NodeID{3, n / 2},
				Alpha:     2,
			}
		}},
		{"staggered-wake", func(seed uint64) adversary.Adversary {
			return &adversary.Wakeup{
				Inner:    &adversary.Churn{Base: mkBase(seed), Add: 6, Del: 6, Seed: seed + 1},
				Schedule: adversary.StaggeredSchedule(n, 4),
			}
		}},
	}
	cases := []struct {
		name string
		pc   problems.PC
		vals []problems.Value
	}{
		{"coloring", problems.Coloring(), []problems.Value{problems.Bot, 1, 2, 3, 9, -2}},
		{"mis", problems.MIS(), []problems.Value{problems.Bot, problems.InMIS, problems.Dominated, 7}},
	}
	for _, sc := range schedules {
		for ci, pcase := range cases {
			t.Run(sc.name+"/"+pcase.name, func(t *testing.T) {
				seed := uint64(17 + ci)
				adv := sc.mk(seed)
				topo := graph.NewDynAdj(n)
				fdr := verify.NewTDynamic(pcase.pc, T, n)
				gfd := newGraphChecker(pcase.pc, T, n)
				orc := verifytest.NewOracle(pcase.pc, T, n)
				var want tally // the oracle's reports, tallied
				view := &advView{n: n, awake: make([]bool, n)}
				out := make([]problems.Value, n)
				outStream := prf.NewStream(seed+99, 0, 0, prf.PurposeWorkload)
				for r := 1; r <= rounds; r++ {
					view.round = r
					st := adv.Step(view)
					adds, removes := st.EdgeAdds, st.EdgeRemoves
					if err := topo.Apply(adds, removes); err != nil {
						t.Fatalf("round %d: %v", r, err)
					}
					g := topo.Graph()
					for _, v := range st.Wake {
						view.awake[v] = true
					}
					// Mutate a random batch of outputs, only on awake nodes
					// (sleeping nodes have no output to change). The mutation
					// log is the changed feed — over-approximate on purpose.
					var changed []graph.NodeID
					for i := 0; i < n/6; i++ {
						v := outStream.Intn(n)
						if view.awake[v] {
							out[v] = pcase.vals[outStream.Intn(len(pcase.vals))]
							changed = append(changed, graph.NodeID(v))
						}
					}
					repFdr := fdr.Feed(engine.RoundDelta{
						Round: r, EdgeAdds: adds, EdgeRemoves: removes,
						Wake: st.Wake, Outputs: out, Changed: changed,
					})
					repGfd := gfd.Observe(g, st.Wake, out)
					repOrc := orc.Observe(g, st.Wake, out)
					want.add(repOrc)
					if !reflect.DeepEqual(repFdr, repOrc) {
						t.Fatalf("round %d: reports diverge\nFeed   %+v\noracle %+v",
							r, repFdr, repOrc)
					}
					if !reflect.DeepEqual(repGfd, repOrc) {
						t.Fatalf("round %d: reports diverge\ngraph-feed %+v\noracle     %+v",
							r, repGfd, repOrc)
					}
				}
				for _, c := range []*verify.TDynamic{fdr, gfd.TDynamic} {
					var got tally
					got.rounds, got.invalid, got.packing, got.cover, got.botCore = c.Totals()
					if got != want {
						t.Fatalf("totals diverge: checker %+v oracle %+v", got, want)
					}
				}
			})
		}
	}
}

func TestPartialChecker(t *testing.T) {
	g := graph.Path(3)
	c := verify.NewPartial(problems.Coloring())
	rep := c.Observe(g, []problems.Value{1, problems.Bot, 1})
	if !rep.Valid() {
		t.Fatalf("valid partial flagged: %+v", rep)
	}
	rep = c.Observe(g, []problems.Value{1, 1, problems.Bot})
	if rep.Valid() {
		t.Fatal("conflicting partial accepted")
	}
	rep = c.Observe(g, []problems.Value{3, problems.Bot, problems.Bot}) // color 3 > deg+1 = 2
	if rep.Valid() {
		t.Fatal("range-violating partial accepted")
	}
	rounds, invalid, total := c.Totals()
	if rounds != 3 || invalid != 2 || total != 2 {
		t.Fatalf("totals = %d %d %d", rounds, invalid, total)
	}
}

func TestStabilityViolationDetected(t *testing.T) {
	// Static graph throughout; a node changing output after Wait rounds
	// must be flagged.
	g := graph.Path(3)
	s := verify.NewStability(3, 2, 2)
	out := []problems.Value{1, 2, 1}
	s.Observe(g, allNodes(3), out) // round 1: streak starts
	s.Observe(g, nil, out)         // round 2
	s.Observe(g, nil, out)         // round 3 = streak(1)+Wait(2): boundary, change still allowed
	changed := []problems.Value{1, 3, 1}
	v := s.Observe(g, nil, changed) // round 4 > 1+2: violation
	if len(v) != 1 || v[0].Node != 1 || v[0].Round != 4 {
		t.Fatalf("violations = %+v", v)
	}
	if s.Changes() != 1 {
		t.Fatalf("changes = %d", s.Changes())
	}
}

func TestStabilityChangeAllowedAtBoundary(t *testing.T) {
	g := graph.Path(3)
	s := verify.NewStability(3, 2, 2)
	out := []problems.Value{1, 2, 1}
	s.Observe(g, allNodes(3), out)
	s.Observe(g, nil, out)
	// Round 3 == staticSince(1) + Wait(2): the last allowed change.
	v := s.Observe(g, nil, []problems.Value{1, 3, 1})
	if len(v) != 0 {
		t.Fatalf("boundary change flagged: %+v", v)
	}
}

func TestStabilityStreakResetByTopologyChange(t *testing.T) {
	a := graph.Path(3)
	b := graph.Cycle(3) // changes every node's 1-ball
	s := verify.NewStability(3, 1, 1)
	out := []problems.Value{1, 2, 3}
	s.Observe(a, allNodes(3), out) // round 1
	s.Observe(a, nil, out)         // round 2
	s.Observe(b, nil, out)         // round 3: topology change resets streaks
	// Round 4: change at streak(3)+1 = allowed boundary.
	v := s.Observe(b, nil, []problems.Value{2, 2, 3})
	if len(v) != 0 {
		t.Fatalf("change right after topology change flagged: %+v", v)
	}
	// Round 5 > 3+1: further change must be flagged.
	v = s.Observe(b, nil, []problems.Value{3, 2, 3})
	if len(v) != 1 {
		t.Fatalf("late change not flagged: %+v", v)
	}
}

func TestStabilityOutsideBallChangeDoesNotReset(t *testing.T) {
	// α = 1: edge changes at distance 2 must not reset node 0's streak.
	base := graph.Path(4) // 0-1-2-3
	mod := graph.FromEdges(4, []graph.EdgeKey{
		graph.MakeEdgeKey(0, 1), graph.MakeEdgeKey(1, 2),
	}) // remove {2,3}: outside 1-ball of node 0
	s := verify.NewStability(4, 1, 1)
	out := []problems.Value{1, 2, 1, 2}
	s.Observe(base, allNodes(4), out) // round 1
	s.Observe(mod, nil, out)          // round 2: node 0's 1-ball unchanged
	// Round 3: node 0 changes output; streak began round 1, 3 > 1+1:
	// must be flagged (its ball was static the whole time).
	v := s.Observe(mod, nil, []problems.Value{3, 2, 1, 2})
	if len(v) != 1 || v[0].Node != 0 {
		t.Fatalf("violation for out-of-ball-stable node missed: %+v", v)
	}
}

func TestStabilityWakeStartsStreak(t *testing.T) {
	g := graph.Empty(2)
	s := verify.NewStability(2, 1, 3)
	out := []problems.Value{problems.Bot, problems.Bot}
	s.Observe(g, []graph.NodeID{0}, out) // round 1: only node 0 awake
	s.Observe(g, nil, out)
	s.Observe(g, []graph.NodeID{1}, out) // round 3: node 1 wakes
	s.Observe(g, nil, out)
	s.Observe(g, nil, out)
	// Round 6: node 1's streak started at 3; 6 == 3+3 boundary -> allowed.
	v := s.Observe(g, nil, []problems.Value{problems.Bot, 1})
	if len(v) != 0 {
		t.Fatalf("change at wake+Wait boundary flagged: %+v", v)
	}
	// Round 7 > boundary: flagged.
	v = s.Observe(g, nil, []problems.Value{problems.Bot, 2})
	if len(v) != 1 || v[0].Node != 1 {
		t.Fatalf("late change after wake not flagged: %+v", v)
	}
}

func TestConflictEdges(t *testing.T) {
	g := graph.Path(4)
	out := []problems.Value{1, 1, problems.Bot, problems.Bot}
	ce := verify.ConflictEdges(g, out)
	if len(ce) != 1 {
		t.Fatalf("conflict edges = %v", ce)
	}
	u, v := ce[0].Nodes()
	if u != 0 || v != 1 {
		t.Fatalf("conflict edge = {%d,%d}", u, v)
	}
	if len(verify.ConflictEdges(g, []problems.Value{1, 2, 1, 2})) != 0 {
		t.Fatal("proper coloring reported conflicts")
	}
}
