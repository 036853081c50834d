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
// # Steps are edge diffs
//
// A highly dynamic network is naturally described by what changed, not by
// a fresh graph (the edge-change view of Censor-Hillel, Kolobov and
// Schwartzman): every Step carries the round's topology as a sorted edge
// diff (EdgeAdds/EdgeRemoves) against the adversary's previous round, and
// no adversary materializes a graph. Randomized adversaries emit their own
// state transitions; Static and Alternator diff fixed graphs once, from
// the round number; the wrappers (LocalStatic, Wakeup, ConflictInjector)
// transform their inner adversary's diff. A round therefore costs
// O(changes) end to end: the engine folds the diff into its adjacency and
// the windows/checkers consume it directly. Callers whose natural unit is
// a whole graph per round wrap themselves in Graphs, which diffs
// consecutive graphs once.
//
// Invariants all adversaries maintain:
//
//   - Determinism: graph sequences are functions of (parameters, seed)
//     only. Randomized adversaries draw from prf streams over sorted
//     edge-key slices — never from Go map iteration order — so a (kind,
//     seed) pair names one reproducible execution.
//   - Model validity: topologies live on the engine's fixed n-node
//     universe and edges only touch awake nodes (the engine asserts this
//     on every added edge); wake-ups are monotone, V_{r-1} ⊆ V_r.
//   - Diffs describe the change against the adversary's previous round
//     exactly, as graph.CheckDiff defines it; the engine panics on any
//     divergence, naming the round.
//   - Diff slices may alias adversary-owned buffers (or immutable graphs'
//     key views) that are reused on the next Step — consumers must finish
//     with them within the round.
//
// Downstream, the per-round topologies feed the engine's two
// communication phases (internal/engine) and the sliding windows
// G^∩T/G^∪T that define the feasibility guarantees (internal/dyngraph,
// internal/verify).
package adversary

import (
	"io"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Step is the adversary's move for one round: the wake set and the
// communication graph G_r as a sorted diff against the adversary's
// previous round (round 1 diffs against the empty graph G_0).
type Step struct {
	Wake []graph.NodeID // nodes waking up at the start of round r
	// EdgeAdds and EdgeRemoves are an exact diff against the previous
	// round's topology, as graph.CheckDiff defines it. The slices may
	// alias adversary-owned buffers reused on the next Step.
	//dynlint:loan
	//dynlint:sorted
	EdgeAdds, EdgeRemoves []graph.EdgeKey
}

// View is the information the model grants the adversary when it
// constructs G_r. Implemented by the engine. It carries no topology: an
// adversary knows the graphs it played from its own diffs.
type View interface {
	// Round is the 1-based round being constructed.
	Round() int
	// N is the size of the potential-node universe.
	N() int
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
	// Step returns round view.Round()'s wake set and topology diff. The
	// topology must only contain edges between nodes awake after the wake
	// set is applied.
	Step(view View) Step
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
// synchronous model (Section 6). Round 1 adds the graph's edges; every
// later diff is empty.
type Static struct {
	G *graph.Graph
}

// Step implements Adversary.
func (s Static) Step(v View) Step {
	if v.Round() != 1 {
		return Step{}
	}
	return Step{Wake: AllNodes(s.G.N()), EdgeAdds: s.G.EdgeKeys()}
}

// Alternator switches between two graphs A and B, playing A for Period
// rounds, then B for Period rounds, and so on. Period <= 0 behaves as 1
// (strict alternation — the high-frequency worst case discussed in the
// introduction, under which the window graphs become weak). Round 1 adds
// A's edges; a switch round emits the diff between the two graphs, which
// is computed once.
type Alternator struct {
	A, B   *graph.Graph
	Period int

	// diffs[ph] is the {adds, removes} diff into phase ph's graph
	// (0: A, 1: B); ready once built.
	diffs [2][2][]graph.EdgeKey
	ready bool
}

// Step implements Adversary.
func (a *Alternator) Step(v View) Step {
	p := max(a.Period, 1)
	r := v.Round()
	if r == 1 {
		return Step{Wake: AllNodes(a.A.N()), EdgeAdds: a.A.EdgeKeys()}
	}
	if (r-1)%p != 0 {
		return Step{}
	}
	if !a.ready {
		adds, removes := graph.DiffSortedKeys(a.B.EdgeKeys(), a.A.EdgeKeys(), nil, nil)
		a.diffs = [2][2][]graph.EdgeKey{{adds, removes}, {removes, adds}}
		a.ready = true
	}
	d := a.diffs[((r-1)/p)%2]
	return Step{EdgeAdds: d[0], EdgeRemoves: d[1]}
}

// Graphs adapts a caller that builds a whole graph each round (a
// mobility model, a hand-written test scenario) to the diff-only Step:
// Next returns round v.Round()'s graph and wake set, and Graphs emits
// the diff against the graph Next returned the round before. Next must
// return graphs over one n-node universe that it does not mutate
// afterwards. The previous graph is hidden state a checkpoint cannot
// carry, so Graphs refuses to checkpoint (ErrNotCheckpointable).
type Graphs struct {
	Next func(v View) (*graph.Graph, []graph.NodeID)

	prev           *graph.Graph
	addBuf, remBuf []graph.EdgeKey
}

// Step implements Adversary.
func (a *Graphs) Step(v View) Step {
	g, wake := a.Next(v)
	var prevKeys []graph.EdgeKey
	if a.prev != nil {
		prevKeys = a.prev.EdgeKeys()
	}
	a.addBuf, a.remBuf = graph.DiffSortedKeys(prevKeys, g.EdgeKeys(), a.addBuf[:0], a.remBuf[:0])
	a.prev = g
	return Step{Wake: wake, EdgeAdds: a.addBuf, EdgeRemoves: a.remBuf}
}

// DeltaStreamSource is the replay surface of a recorded trace, declared
// locally to keep the package dependency-light: one round of deltas per
// call, io.EOF after the last. dyngraph.StreamDecoder implements it over
// the wire format and dyngraph.TraceCursor over an in-memory Trace. The
// returned slices may alias source-owned buffers reused on the next call.
type DeltaStreamSource interface {
	NextDeltas() (wake []graph.NodeID, adds, removes []graph.EdgeKey, err error)
}

// ScriptedStream is the replay adversary: it plays a recorded trace one
// round per engine step, pulling each round's edge diff from its source
// — a StreamDecoder, which never holds more than the current round in
// memory, or a Trace's in-memory cursor. The source's loaned slices pass
// through Step unchanged (a sanctioned loan-to-loan handoff: the engine
// consumes a step's slices within the round, and the source reuses them
// only on the next pull). After the source reports io.EOF the final
// topology persists as empty diffs. Its checkpoint section is the number
// of rounds consumed (see Checkpointer in checkpoint.go).
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
