package dynlocal

import (
	"io"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/baseline"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/dyngraph"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/verify"
)

// Core model types.
type (
	// Graph is an immutable simple undirected graph.
	Graph = graph.Graph
	// NodeID identifies a node in the potential-node universe.
	NodeID = graph.NodeID
	// EdgeKey is the canonical key of an undirected edge.
	EdgeKey = graph.EdgeKey
	// Point is a 2-D coordinate used by geometric workloads.
	Point = graph.Point
	// Value is a node output; Bot is ⊥.
	Value = problems.Value
	// Violation reports a node whose LCL condition fails.
	Violation = problems.Violation
	// Problem bundles the packing and covering halves of a problem.
	Problem = problems.PC
)

// Output values.
const (
	// Bot is ⊥: no output yet.
	Bot = problems.Bot
	// InMIS marks independent-set membership.
	InMIS = problems.InMIS
	// Dominated marks nodes dominated by an InMIS neighbor.
	Dominated = problems.Dominated
)

// Engine types.
type (
	// Engine drives one round-synchronous simulation.
	Engine = engine.Engine
	// EngineConfig parameterizes a simulation.
	EngineConfig = engine.Config
	// RoundInfo is the observer view of a completed round. Its Outputs,
	// Changed, Wake, EdgeAdds and EdgeRemoves slices are pooled (Retain
	// deep-copies a round to hold it longer); Changed plus EdgeAdds/EdgeRemoves
	// form the engine's round-delta plane, consolidated by Delta and
	// consumed whole by TDynamicChecker.Feed.
	RoundInfo = engine.RoundInfo
	// RoundDelta is the consolidated round-delta view (RoundInfo.Delta),
	// the argument of TDynamicChecker.Feed.
	RoundDelta = engine.RoundDelta
	// Quiescer is optionally implemented by algorithm node processes that
	// reach a terminal silent state, letting the engine's sparse activity
	// plane stop running them entirely.
	Quiescer = engine.Quiescer
	// Algorithm creates per-node processes for the engine.
	Algorithm = engine.Algorithm
	// Combined is a framework combination (Theorem 1.1) of a dynamic and
	// a network-static algorithm.
	Combined = core.Concat
	// Chained is the triple combination of the Section 3 remark: a
	// network-static base, a limited-dynamics mid pipeline with a
	// stronger (fresher) guarantee, and the unconditional outer pipeline.
	Chained = core.Chain
)

// Adversary types.
type (
	// Adversary produces the per-round communication graphs.
	Adversary = adversary.Adversary
	// AdversaryView is the model-granted information an adversary sees.
	AdversaryView = adversary.View
	// AdversaryStep is one adversary move: a wake set and the round's
	// sorted edge diff.
	AdversaryStep = adversary.Step
	// GraphsAdversary adapts a function that builds a whole graph each
	// round, diffing consecutive graphs.
	GraphsAdversary = adversary.Graphs
	// StaticAdversary plays one fixed graph.
	StaticAdversary = adversary.Static
	// ChurnAdversary inserts and deletes random edges every round.
	ChurnAdversary = adversary.Churn
	// EdgeMarkovAdversary flips footprint edges on and off.
	EdgeMarkovAdversary = adversary.EdgeMarkov
	// LocalStaticAdversary freezes α-balls while churning elsewhere.
	LocalStaticAdversary = adversary.LocalStatic
	// ConflictInjector inserts edges between equal-output nodes.
	ConflictInjector = adversary.ConflictInjector
	// WakeupAdversary staggers node wake-ups over an inner adversary.
	WakeupAdversary = adversary.Wakeup
	// ClairvoyantAdversary is the adaptive-offline adversary of the
	// remark after Lemma 5.2.
	ClairvoyantAdversary = adversary.LubyStaller
	// P2PChurnAdversary models a P2P overlay under heavy-tailed session
	// churn: joins, Pareto session lengths, rejoin-with-fresh-id, and
	// scheduled targeted mass departures, emitted delta-natively.
	P2PChurnAdversary = adversary.P2PChurn
	// MassDeparture schedules a targeted mass-departure event for
	// P2PChurnAdversary.
	MassDeparture = adversary.MassDeparture
	// ScriptedStreamAdversary replays a recorded trace one round per
	// engine step, from a streaming decoder (in constant memory) or from
	// an in-memory Trace.
	ScriptedStreamAdversary = adversary.ScriptedStream
)

// Window and checker types.
type (
	// SlidingWindow maintains G^∩T and G^∪T incrementally.
	SlidingWindow = dyngraph.Window
	// FracWindow is the δ-fraction window of Section 7.2.
	FracWindow = dyngraph.FracWindow
	// Trace records dynamic graph sequences for replay.
	Trace = dyngraph.Trace
	// TraceStreamEncoder writes a trace one validated round at a time, so
	// arbitrarily long runs spill to disk in constant memory.
	TraceStreamEncoder = dyngraph.StreamEncoder
	// TraceStreamDecoder reads and validates a trace one round at a time;
	// hostile input errors out, it never over-allocates or panics.
	TraceStreamDecoder = dyngraph.StreamDecoder
	// TraceRound is one decoded round of a trace stream (loaned buffers,
	// valid until the next pull).
	TraceRound = dyngraph.TraceRound
	// TDynamicChecker verifies T-dynamic solutions every round.
	TDynamicChecker = verify.TDynamic
	// TDynamicReport is one round's verification result.
	TDynamicReport = verify.TDynamicReport
	// PartialChecker verifies property B.1 every round.
	PartialChecker = verify.Partial
	// StabilityChecker verifies locally-static guarantees.
	StabilityChecker = verify.Stability
)

// DefaultOutputLag is the adversary obliviousness lag selected when
// EngineConfig.OutputLag is left zero — the 2-oblivious adversary that
// DMis (Lemma 5.1) requires.
const DefaultOutputLag = engine.DefaultOutputLag

// MISProblem returns the MIS problem decomposition (M_P, M_C).
func MISProblem() Problem { return problems.MIS() }

// ColoringProblem returns the (degree+1)-coloring decomposition (C_P, C_C).
func ColoringProblem() Problem { return problems.Coloring() }

// NewEngine creates a simulation engine.
func NewEngine(cfg EngineConfig, adv Adversary, algo Algorithm) *Engine {
	return engine.New(cfg, adv, algo)
}

// NewMIS returns the combined dynamic MIS algorithm of Corollary 1.3 for
// a universe of n nodes. Requires a 2-oblivious adversary (the engine
// default).
func NewMIS(n int) *Combined { return mis.NewMIS(n) }

// NewColoring returns the combined dynamic (degree+1)-coloring algorithm
// of Corollary 1.2 for a universe of n nodes. Valid against adaptive
// offline adversaries.
func NewColoring(n int) *Combined { return coloring.NewColoring(n) }

// NewChainedMIS returns the triple combination of the Section 3 remark
// for MIS: the mid pipeline runs DMis with the given smaller window,
// giving a fresher guarantee whenever the dynamics permit, observable
// through the Chained.MidProbe hook; the outer pipeline guarantees a
// T-dynamic solution unconditionally.
func NewChainedMIS(n, midWindow int) *Chained { return mis.NewChainedMIS(n, midWindow) }

// NewDMis returns the standalone T-dynamic MIS algorithm (Algorithm 4).
func NewDMis(n int) Algorithm { return mis.NewDynamic(n) }

// NewSMis returns the standalone network-static MIS algorithm
// (Algorithm 5).
func NewSMis(n int) Algorithm { return mis.NewNetworkStatic(n) }

// NewLuby returns the pipelined Luby algorithm for static graphs.
func NewLuby(n int) Algorithm { return mis.NewLuby(n) }

// NewDColor returns the standalone T-dynamic coloring algorithm
// (Algorithm 2).
func NewDColor(n int) Algorithm { return coloring.NewDynamic(n) }

// NewSColor returns the standalone network-static coloring algorithm
// (Algorithm 3).
func NewSColor(n int) Algorithm { return coloring.NewNetworkStatic(n) }

// NewBasicColoring returns the pipelined basic randomized coloring for
// static graphs (Algorithm 6).
func NewBasicColoring(n int) Algorithm { return coloring.NewBasic(n) }

// NewGreedyRepairMIS returns the recovery-period baseline for MIS.
func NewGreedyRepairMIS(n int) Algorithm { return baseline.GreedyRepairMIS{N: n} }

// NewGreedyRepairColoring returns the recovery-period baseline for
// coloring.
func NewGreedyRepairColoring(n int) Algorithm { return baseline.GreedyRepairColoring{N: n} }

// NewRestartMIS returns the pipelined-restart strawman of Section 1.1
// for MIS (T-dynamic but unstable).
func NewRestartMIS(n int) *Combined {
	return baseline.NewRestartMIS(n, &mis.DMisFactory{N: n})
}

// Workload generators. Each takes a seed so that workload randomness is
// independent of algorithm randomness.

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, seed uint64) *Graph {
	return graph.GNP(n, p, prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
}

// RandomGeometric returns a unit-disk graph on n uniform points.
func RandomGeometric(n int, radius float64, seed uint64) *Graph {
	pts := graph.RandomPoints(n, prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
	return graph.Geometric(pts, radius)
}

// Geometric returns the unit-disk graph of the given points.
func Geometric(pts []Point, radius float64) *Graph { return graph.Geometric(pts, radius) }

// RandomPoints draws n uniform points in the unit square.
func RandomPoints(n int, seed uint64) []Point {
	return graph.RandomPoints(n, prf.NewStream(seed, 0, 0, prf.PurposeWorkload))
}

// Cycle returns the n-cycle.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph { return graph.Grid(rows, cols) }

// Complete returns K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// NewChurn returns a churn adversary starting from base, inserting add
// and deleting del random edges per round.
func NewChurn(base *Graph, add, del int, seed uint64) *ChurnAdversary {
	return &adversary.Churn{Base: base, Add: add, Del: del, Seed: seed}
}

// NewEdgeMarkov returns an edge-Markov adversary over the footprint.
func NewEdgeMarkov(footprint *Graph, pOn, pOff float64, seed uint64) *EdgeMarkovAdversary {
	return &adversary.EdgeMarkov{Footprint: footprint, POn: pOn, POff: pOff, Seed: seed}
}

// NewScripted replays an in-memory trace through the replay adversary
// of NewScriptedStream, reading its rounds from a Trace cursor.
func NewScripted(tr *Trace) *ScriptedStreamAdversary {
	return adversary.NewScriptedStream(tr.Cursor())
}

// NewScriptedStream replays a trace straight from a streaming decoder:
// one round is pulled per engine step, so traces far larger than memory
// replay at O(changes)/round. Check its Err after the run when the trace
// bytes are untrusted.
func NewScriptedStream(d *TraceStreamDecoder) *ScriptedStreamAdversary {
	return adversary.NewScriptedStream(d)
}

// NewTrace creates an empty in-memory trace over an n-node universe.
func NewTrace(n int) *Trace { return dyngraph.NewTrace(n) }

// DecodeTrace reads a whole trace from the binary wire format into
// memory, validating it as untrusted input.
func DecodeTrace(r io.Reader) (*Trace, error) { return dyngraph.DecodeTrace(r) }

// NewTraceStreamEncoder starts a trace stream over an n-node universe
// holding exactly rounds rounds.
func NewTraceStreamEncoder(w io.Writer, n, rounds int) (*TraceStreamEncoder, error) {
	return dyngraph.NewStreamEncoder(w, n, rounds)
}

// NewTraceStreamDecoder reads and validates a trace stream header; the
// rounds follow via Next/NextDeltas.
func NewTraceStreamDecoder(r io.Reader) (*TraceStreamDecoder, error) {
	return dyngraph.NewStreamDecoder(r)
}

// RestoreArena is a reusable allocation pool for checkpoint restores:
// node states, pipeline slots and snapshot buffers are carved from its
// chunks instead of the heap, so a restore-heavy loop (fault-tolerant
// replay, chain application, restore benchmarks) allocates almost
// nothing after warm-up. The arena's memory is owned by the one restored
// run built from it — call Reset only after that engine and checker have
// been dropped, and never share one arena across concurrent restores.
type RestoreArena = ckpt.RestoreArena

// NewRestoreArena creates an empty restore arena.
func NewRestoreArena() *RestoreArena { return ckpt.NewRestoreArena() }

// WriteCheckpointChain starts a checkpoint chain on w: the chain magic
// followed by one base record capturing the full deterministic run state
// — the engine and, when non-nil, the T-dynamic checker (see
// docs/checkpointing.md). A base lists what differs from a freshly
// constructed run, so a plain checkpoint is this one-record chain. The
// record is noted as the chain head, so subsequent AppendCheckpointDelta
// calls diff against it. It must be called at a round barrier, i.e.
// between Step calls, never from inside an OnRound observer. Records are
// framed and CRC-protected; a torn or corrupted chain never restores.
// Callers writing to a file should write a temporary file and rename it
// into place after a successful return, the pattern `dynsim -checkpoint`
// uses. The same c (nil or not) must be passed to every call on one
// chain.
func WriteCheckpointChain(w io.Writer, e *Engine, c *TDynamicChecker) error {
	return e.WriteRecord(w, true, chainPart(c))
}

// AppendCheckpointDelta appends one delta record to a chain started with
// WriteCheckpointChain: only the state that moved since the previous
// record — dirty nodes, the net topology diff, changed snapshot-ring
// columns, the window's dirty spans and slots — so its cost scales with
// the inter-checkpoint activity, not with the universe size. On success
// the record becomes the chain tail; on error nothing is noted, and the
// next append diffs against the last record that actually persisted —
// exactly what a crashed-then-resumed appender needs.
func AppendCheckpointDelta(w io.Writer, e *Engine, c *TDynamicChecker) error {
	return e.WriteRecord(w, false, chainPart(c))
}

// ReadCheckpointChain restores a chain written by WriteCheckpointChain +
// AppendCheckpointDelta into a freshly constructed engine and checker
// (nil to match a nil at write time), optionally carving allocations
// from a reusable arena. The engine, algorithm, adversary and checker
// must be rebuilt with the same constructors and configuration as the
// checkpointed run; the base record rejects any mismatch. Every record
// is CRC-verified in memory and its parent linkage validated before it
// applies, so a torn tail, a reordered record or a delta over the wrong
// base fails cleanly. After a successful return the run continues
// bit-identically from the last record's round, under any worker count,
// and keeps appending deltas to the same chain.
func ReadCheckpointChain(r io.Reader, e *Engine, c *TDynamicChecker, a *RestoreArena) error {
	return e.ReadChain(r, a, chainPart(c))
}

// chainPart adapts an optional checker to the engine's record helper: a
// nil checker must stay a nil interface.
func chainPart(c *TDynamicChecker) engine.ChainPart {
	if c == nil {
		return nil
	}
	return c
}

// RecoverTrace salvages a torn trace recording — a crash mid-write
// leaves the file truncated anywhere — by re-encoding the longest
// decodable round prefix of src to dst with a corrected header. It
// returns the number of rounds recovered.
func RecoverTrace(src io.ReadSeeker, dst io.Writer) (int, error) {
	return dyngraph.RecoverTrace(src, dst)
}

// StaggeredSchedule wakes perRound nodes per round in id order.
func StaggeredSchedule(n, perRound int) []int { return adversary.StaggeredSchedule(n, perRound) }

// UniformRandomSchedule wakes each node in a uniform round of [1, maxRound].
func UniformRandomSchedule(n, maxRound int, seed uint64) []int {
	return adversary.UniformRandomSchedule(n, maxRound, seed)
}

// NewTDynamicChecker verifies T-dynamic solutions round by round. Inside
// an engine OnRound observer, feed it with Feed(info.Delta()): the
// checker maintains violation state purely from the engine's round-delta
// plane — no graph materialization, no O(|E_r|) edge scan and no O(n)
// output scan, so a verified round costs O(changes). Topologies or
// outputs produced outside the engine are fed the same way, as a
// RoundDelta of sorted edge diffs and changed nodes.
func NewTDynamicChecker(p Problem, t, n int) *TDynamicChecker {
	return verify.NewTDynamic(p, t, n)
}

// NewPartialChecker verifies property B.1 round by round.
func NewPartialChecker(p Problem) *PartialChecker { return verify.NewPartial(p) }

// NewStabilityChecker verifies locally-static guarantees: output changes
// of nodes whose α-ball has been static for more than wait rounds are
// violations.
func NewStabilityChecker(n, alpha, wait int) *StabilityChecker {
	return verify.NewStability(n, alpha, wait)
}

// NewSlidingWindow creates a T-round sliding window over n nodes.
func NewSlidingWindow(t, n int) *SlidingWindow { return dyngraph.NewWindow(t, n) }

// NewFracWindow creates a δ-fraction window (Section 7.2), 1 <= t <= 64.
func NewFracWindow(t, n int) *FracWindow { return dyngraph.NewFracWindow(t, n) }

// AllNodes returns the wake set {0, …, n-1}.
func AllNodes(n int) []NodeID { return adversary.AllNodes(n) }
