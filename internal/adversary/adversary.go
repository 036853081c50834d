// Package adversary implements the round-based adversaries of the paper's
// dynamic-network model (Section 2): at the start of each round the
// adversary provides the communication graph G_r and may wake additional
// nodes (V_{r-1} ⊆ V_r).
//
// Obliviousness is modeled through the View interface: the engine hands a
// ρ-oblivious adversary the algorithm outputs only up to round r-ρ, which
// is exactly the information whose randomness the adversary may know
// ("a 2-oblivious adversary does not know the random bits of round r and
// r−1 when determining graph G_r"). The adaptive-offline adversary of the
// remark after Lemma 5.2 is realized by LubyStaller, which is additionally
// given the PRF seed and therefore knows every future random bit.
//
// # Delta-native steps
//
// A highly dynamic network is naturally described by what changed, not by
// a fresh graph: a Step may carry the round's topology as a sorted edge
// diff (EdgeAdds/EdgeRemoves, with G == nil) instead of a materialized
// graph. EdgeMarkov, Churn, LocalStatic and Scripted emit such delta
// steps natively — their own state transitions are the diff — so a round
// costs O(changes) end to end: the engine folds the diff into its pooled
// CSR patcher (graph.Patcher) and the windows/checkers consume it
// directly. Adversaries that materialize (Static, Alternator,
// LubyStaller, the wrappers) keep returning full graphs; Resolver turns
// either kind of step into a (graph, adds, removes) triple, synthesizing
// the diff by a linear edge-key merge when only a graph was given.
//
// Invariants all adversaries maintain:
//
//   - Determinism: graph sequences are functions of (parameters, seed)
//     only. Randomized adversaries draw from prf streams over sorted
//     edge-key slices — never from Go map iteration order — so a (kind,
//     seed) pair names one reproducible execution.
//   - Model validity: returned topologies live on the engine's fixed
//     n-node universe and edges only touch awake nodes (the engine
//     asserts this on every added edge); wake-ups are monotone,
//     V_{r-1} ⊆ V_r.
//   - Delta steps describe the diff against the adversary's previous
//     round exactly (strictly ascending keys, adds absent before, removes
//     present before); the engine's patcher panics on any divergence.
//   - Materialized graphs are immutable graph.Graph values and may be
//     retained by observers; adversaries never mutate a graph they have
//     handed out. Delta steps may alias adversary-owned buffers that are
//     reused on the next Step — consumers must finish with them within
//     the round.
//
// Downstream, the per-round topologies feed the engine's two
// communication phases (internal/engine) and the sliding windows
// G^∩T/G^∪T that define the feasibility guarantees (internal/dyngraph,
// internal/verify).
package adversary

import (
	"io"
	"slices"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Step is the adversary's move for one round: either a materialized
// communication graph G_r, or — when G is nil — a delta-native step whose
// EdgeAdds/EdgeRemoves describe G_r as a sorted diff against the
// adversary's previous round (round 1 diffs against the empty graph G_0).
type Step struct {
	// G is the communication graph G_r; nil for a delta step. It may
	// alias pooled resolver/patcher arenas valid for the round.
	//dynlint:loan
	G    *graph.Graph
	Wake []graph.NodeID // nodes waking up at the start of round r
	// EdgeAdds and EdgeRemoves are the sorted edge diff of a delta step:
	// strictly ascending canonical keys, every added edge absent from and
	// every removed edge present in the previous round's topology. Ignored
	// when G is non-nil (the graph is authoritative; Resolver synthesizes
	// the diff). The slices may alias adversary-owned buffers reused on
	// the next Step.
	//dynlint:loan
	//dynlint:sorted
	EdgeAdds, EdgeRemoves []graph.EdgeKey
}

// View is the information the model grants the adversary when it
// constructs G_r. Implemented by the engine.
type View interface {
	// Round is the 1-based round being constructed.
	Round() int
	// N is the size of the potential-node universe.
	N() int
	// PrevGraph returns G_{r-1} (the empty graph before round 1).
	PrevGraph() *graph.Graph
	// Awake reports whether v is awake entering this round.
	Awake(v graph.NodeID) bool
	// DelayedOutputs returns the output snapshot at the end of round
	// Round()-ρ for the engine's obliviousness lag ρ, or nil if that
	// round predates the execution. The returned slice must not be
	// modified.
	DelayedOutputs() []problems.Value
}

// Adversary produces the graph sequence.
type Adversary interface {
	// Step returns round view.Round()'s topology (materialized or as a
	// delta, see Step) and wake set. The topology must only contain edges
	// between nodes awake after the wake set is applied.
	Step(view View) Step
}

// Resolver materializes the topology stream of a possibly delta-native
// adversary and reports every round's sorted edge diff, so consumers —
// the engine, wrapper adversaries, tests — can handle both step kinds
// uniformly. Delta steps are folded into a pooled graph.Patcher (one
// block-copy merge, no counting rebuild); materialized steps are adopted
// as-is and their diff synthesized with one linear merge over the
// EdgeKeys views of consecutive rounds.
//
// Lifetimes follow the patcher's double buffering: a resolved graph stays
// valid through the next Resolve call and may be recycled by the one
// after that; the returned diff slices are valid until the next Resolve.
// Clone anything retained longer.
//
// Resolver has two mutually exclusive feeds. Resolve is the eager one:
// every round yields a materialized graph (wrapper adversaries and tests
// use it). Observe/Materialize is the lazy one the engine's sparse round
// plane uses: Observe only reports each round's diff — folding it into a
// pending net-diff — and a CSR graph is built just when Materialize is
// called, so delta-native rounds never pay the patcher's O(n + m) merge.
// The pending net-diff is bounded by the symmetric difference against the
// last materialized graph, i.e. O(m) however many rounds pass between
// materializations.
type Resolver struct {
	p *graph.Patcher
	// prev holds the previous round's graph, which may alias a pooled
	// patcher arena: a sanctioned loan-to-loan handoff — the patcher's
	// double buffering keeps it valid exactly as long as the resolver
	// needs it.
	//dynlint:loan
	prev   *graph.Graph
	addBuf []graph.EdgeKey
	remBuf []graph.EdgeKey

	// Lazy plane (Observe/Materialize): the net edge diff accumulated
	// since prev was last materialized, with exact add/remove
	// cancellation, plus sort scratch for Materialize. Kept separate from
	// addBuf/remBuf so a mid-round Materialize cannot clobber diff slices
	// an Observe caller is still holding.
	pendAdd, pendRem map[graph.EdgeKey]struct{}
	matAdd, matRem   []graph.EdgeKey
}

// NewResolver creates a resolver over an n-node universe; the previous
// topology starts as the empty graph G_0.
func NewResolver(n int) *Resolver {
	p := graph.NewPatcher(n)
	return &Resolver{
		p: p, prev: p.Current(),
		pendAdd: make(map[graph.EdgeKey]struct{}),
		pendRem: make(map[graph.EdgeKey]struct{}),
	}
}

// Resolve turns st into a (graph, adds, removes) triple. For a delta step
// the graph is patched from the previous round and the given diff is
// passed through; for a materialized step the diff is synthesized. The
// same-graph fast path (adversaries like Static replay one immutable
// graph) costs O(1).
//
//dynlint:loan
func (r *Resolver) Resolve(st *Step) (g *graph.Graph, adds, removes []graph.EdgeKey) {
	if st.G == nil {
		r.p.Reset(r.prev)
		g = r.p.Apply(st.EdgeAdds, st.EdgeRemoves)
		r.prev = g
		return g, st.EdgeAdds, st.EdgeRemoves
	}
	g = st.G
	if g == r.prev {
		return g, nil, nil
	}
	adds, removes = graph.DiffSortedKeys(r.prev.EdgeKeys(), g.EdgeKeys(), r.addBuf[:0], r.remBuf[:0])
	r.addBuf, r.remBuf = adds, removes
	r.prev = g
	return g, adds, removes
}

// Observe is the lazy sibling of Resolve: it reports the round's sorted
// edge diff without materializing a graph. Delta steps pass their diff
// through and fold it into the resolver's pending net-diff (with exact
// add/remove cancellation), so a delta-native round costs O(changes) and
// allocates nothing; materialized steps are adopted as-is (after catching
// the pending diff up) and their diff synthesized as in Resolve. The
// current graph is produced on demand by Materialize. The returned
// slices follow the same lifetime as Resolve's: valid until the next
// Observe. Observe and Resolve must not be mixed on one Resolver.
//
//dynlint:loan
func (r *Resolver) Observe(st *Step) (adds, removes []graph.EdgeKey) {
	if st.G == nil {
		for _, k := range st.EdgeAdds {
			if _, ok := r.pendRem[k]; ok {
				delete(r.pendRem, k)
			} else {
				r.pendAdd[k] = struct{}{}
			}
		}
		for _, k := range st.EdgeRemoves {
			if _, ok := r.pendAdd[k]; ok {
				delete(r.pendAdd, k)
			} else {
				r.pendRem[k] = struct{}{}
			}
		}
		return st.EdgeAdds, st.EdgeRemoves
	}
	prev := r.Materialize()
	g := st.G
	if g == prev {
		return nil, nil
	}
	adds, removes = graph.DiffSortedKeys(prev.EdgeKeys(), g.EdgeKeys(), r.addBuf[:0], r.remBuf[:0])
	r.addBuf, r.remBuf = adds, removes
	r.prev = g
	return adds, removes
}

// Materialize returns the current graph of the Observe feed, folding any
// pending net diff into the pooled patcher first. With no pending changes
// it is O(1) (the previously materialized graph is returned unchanged);
// otherwise it costs one O(n + m) patcher merge — which is why the engine
// only calls it on demand, never per round. The returned graph follows
// the patcher lifetime: valid until the second-next materialization that
// actually patches; Clone to retain longer.
func (r *Resolver) Materialize() *graph.Graph {
	if len(r.pendAdd) == 0 && len(r.pendRem) == 0 {
		return r.prev
	}
	r.matAdd = sortedKeys(r.pendAdd, r.matAdd[:0])
	r.matRem = sortedKeys(r.pendRem, r.matRem[:0])
	clear(r.pendAdd)
	clear(r.pendRem)
	r.p.Reset(r.prev)
	r.prev = r.p.Apply(r.matAdd, r.matRem)
	return r.prev
}

// sortedKeys appends a key set to dst in ascending order.
func sortedKeys(set map[graph.EdgeKey]struct{}, dst []graph.EdgeKey) []graph.EdgeKey {
	for k := range set {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// AllNodes returns the full wake set 0..n-1.
func AllNodes(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// Static plays a fixed graph every round and wakes all nodes at round 1.
// With this adversary the simulation reduces to the classic static
// synchronous model (Section 6). It hands out the same immutable graph
// each round, which the Resolver recognizes as an O(1) empty diff.
type Static struct {
	G *graph.Graph
}

// Step implements Adversary.
func (s Static) Step(v View) Step {
	st := Step{G: s.G}
	if v.Round() == 1 {
		st.Wake = AllNodes(s.G.N())
	}
	return st
}

// Alternator switches between two graphs A and B, playing A for Period
// rounds, then B for Period rounds, and so on. Period <= 0 behaves as 1
// (strict alternation — the high-frequency worst case discussed in the
// introduction, under which the window graphs become weak).
type Alternator struct {
	A, B   *graph.Graph
	Period int
}

// Step implements Adversary.
func (a Alternator) Step(v View) Step {
	p := a.Period
	if p <= 0 {
		p = 1
	}
	st := Step{}
	if ((v.Round()-1)/p)%2 == 0 {
		st.G = a.A
	} else {
		st.G = a.B
	}
	if v.Round() == 1 {
		st.Wake = AllNodes(a.A.N())
	}
	return st
}

// Scripted replays a recorded trace delta-natively: no graph is ever
// materialized, each round is its recorded edge diff, and after the trace
// is exhausted the final topology persists as empty diffs.
type Scripted struct {
	steps []Step
}

// DeltaSource is the delta-native replay surface of dyngraph.Trace,
// declared locally to keep the package dependency-light.
type DeltaSource interface {
	ReplayDeltas(fn func(round int, adds, removes []graph.EdgeKey, wake []graph.NodeID))
}

// NewScripted copies a trace's recorded edge diffs into an adversary.
func NewScripted(tr DeltaSource) *Scripted {
	s := &Scripted{}
	tr.ReplayDeltas(func(round int, adds, removes []graph.EdgeKey, wake []graph.NodeID) {
		s.steps = append(s.steps, Step{
			Wake:        append([]graph.NodeID(nil), wake...),
			EdgeAdds:    append([]graph.EdgeKey(nil), adds...),
			EdgeRemoves: append([]graph.EdgeKey(nil), removes...),
		})
	})
	return s
}

// Step implements Adversary.
func (s *Scripted) Step(v View) Step {
	if r := v.Round(); r <= len(s.steps) {
		return s.steps[r-1]
	}
	return Step{}
}

// DeltaStreamSource is the streaming replay surface of
// dyngraph.StreamDecoder (its NextDeltas method), declared locally to
// keep the package dependency-light: one validated round of deltas per
// call, io.EOF after the last. The returned slices may alias source-owned
// buffers reused on the next call.
type DeltaStreamSource interface {
	NextDeltas() (wake []graph.NodeID, adds, removes []graph.EdgeKey, err error)
}

// ScriptedStream replays a trace straight from a streaming decoder, one
// round per engine step, without ever holding more than the current round
// in memory — the constant-memory sibling of Scripted for traces too
// large to materialize. The decoder's loaned slices pass through Step
// unchanged (a sanctioned loan-to-loan handoff: the engine consumes a
// step's slices within the round, and the source reuses them only on the
// next pull). After the source reports io.EOF the final topology persists
// as empty diffs, matching Scripted.
//
// A decode error mid-run cannot be reported through the Adversary
// interface; the stream freezes the topology (empty diffs from then on)
// and exposes the error via Err, which callers replaying untrusted traces
// must check after the run.
type ScriptedStream struct {
	src DeltaStreamSource
	// consumed counts successful pulls from the source — the stream's
	// replay position, which is all the state a checkpoint needs (see
	// Checkpointer in checkpoint.go).
	consumed int
	done     bool
	err      error
}

// NewScriptedStream wraps a streaming delta source as an adversary.
func NewScriptedStream(src DeltaStreamSource) *ScriptedStream {
	return &ScriptedStream{src: src}
}

// Step implements Adversary. The returned slices alias decoder-owned
// buffers valid for the round only.
func (s *ScriptedStream) Step(v View) Step {
	if s.done {
		return Step{}
	}
	wake, adds, removes, err := s.src.NextDeltas()
	if err != nil {
		s.done = true
		if err != io.EOF {
			s.err = err
		}
		return Step{}
	}
	s.consumed++
	return Step{Wake: wake, EdgeAdds: adds, EdgeRemoves: removes}
}

// Err returns the first decode error the source reported, or nil if the
// stream ended cleanly (or has not ended yet).
func (s *ScriptedStream) Err() error { return s.err }

// advStream returns the adversary-owned random stream for a round.
// Adversary randomness is keyed with node id -1 so it never collides with
// node streams.
func advStream(seed uint64, round int) prf.Stream {
	return prf.Make(seed, -1, round, prf.PurposeAdversary)
}
