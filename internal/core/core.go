// Package core implements the paper's framework for highly dynamic
// network algorithms (Section 3): the contracts of T-dynamic algorithms
// (Definition 3.3, properties A.1/A.2) and (T, α)-network-static
// algorithms (properties B.1/B.2), and the Concat combiner (Algorithm 1)
// realizing Theorem 1.1 — a network-static base algorithm continuously
// computes a partial solution, and a pipeline of dynamic-algorithm
// instances extends it to a full T-dynamic solution every round.
//
// Each node's pipeline is laid out in blocks: while it fills, the
// combiner takes instances in blocks of eight from one
// DynamicAlgorithm.NewNodes call, one allocation per block, instead of
// one NewNode per round. The engine runs a round node by node, and every
// node touches each of its T1-1 instances, so instances built round by
// round would lie scattered among all other nodes' instances and cost a
// cache miss each per round; a node's blocks keep them together.
//
// The combiners recycle instances: once a pipeline is full, the instance
// it evicts is Started again as the pipeline's newest, so no instance is
// allocated after the pipeline fills and every block stays in place for
// the rest of the run. NodeInstance.Start must therefore fully
// reinitialize an instance (see NodeInstance); storage such as streak
// tables and palettes may be kept for reuse.
package core

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// NodeInstance is the per-node state machine of an algorithm instance run
// inside the framework. It is the engine.NodeProc contract minus channel
// management: instances emit sub-messages with Chan 0 and receive only the
// sub-messages addressed to them; the combiner rewrites channels.
//
// The ctx an instance receives is read-only and valid only during the
// call: a combiner copies the engine's context once per callback and
// shares that copy among the node's instances, changing only its
// PurposeBase from one instance to the next.
type NodeInstance interface {
	// Start (re)initializes the instance with its input. It may be called
	// again on an instance that has already run — the combiners recycle
	// evicted pipeline instances this way — and must then leave it
	// indistinguishable from a fresh NewNode instance given the same
	// Start: the same SaveState bytes and the same behavior in every
	// later round. Only storage capacity may carry over.
	Start(ctx *engine.Ctx, input problems.Value)
	Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg
	Process(ctx *engine.Ctx, in []engine.Incoming, deg int)
	Output() problems.Value
}

// DynamicAlgorithm is a T-dynamic algorithm factory (Definition 3.3):
// instances must be input-extending (A.1) and finalizing (A.2) — started
// in round j on a partial solution for G_{j-1}, after T-1 rounds the
// output solves the packing problem on G^∩T and the covering problem on
// G^∪T.
type DynamicAlgorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// WindowSize returns the algorithm's T for universe size n — the
	// number of rounds (inclusive of the start round) after which A.2
	// holds w.h.p.
	WindowSize(n int) int
	// NewNode creates the per-node instance state.
	NewNode(v graph.NodeID) NodeInstance
	// NewNodes appends k fresh instances for node v to dst and returns
	// the extended slice. Each instance is in the state NewNode leaves
	// one in, but the k instances are allocated as one block, so that a
	// combiner pipeline's instances sit together in memory (see
	// pipeline).
	NewNodes(v graph.NodeID, k int, dst []NodeInstance) []NodeInstance
}

// NetworkStaticAlgorithm is a (T, α)-network-static algorithm factory
// (Definition 3.3): instances must output a partial solution for the
// current graph every round (B.1) and produce a fixed non-⊥ output within
// T rounds wherever the α-neighborhood is static (B.2).
type NetworkStaticAlgorithm interface {
	Name() string
	// StabilizationTime returns the algorithm's T for universe size n.
	StabilizationTime(n int) int
	// Alpha returns the locality radius α of property B.2.
	Alpha() int
	NewNode(v graph.NodeID) NodeInstance
}

// MessageBitsFunc optionally reports the encoded size of an instance
// sub-message; implemented by algorithm factories for experiment E12.
type MessageBitsFunc interface {
	MessageBits(m engine.SubMsg) int
}

// Single adapts one framework algorithm factory into an engine.Algorithm,
// for running DColor, SColor, DMis or SMis standalone.
type Single struct {
	Label   string
	Factory func(v graph.NodeID) NodeInstance
	Bits    func(m engine.SubMsg) int
}

// Name implements engine.Algorithm.
func (s Single) Name() string { return s.Label }

// NewNode implements engine.Algorithm.
func (s Single) NewNode(v graph.NodeID) engine.NodeProc {
	inst := s.Factory(v)
	q, _ := inst.(engine.Quiescer)
	return singleProc{inst: inst, q: q}
}

// MessageBits implements engine.BitSizer when a Bits function is set.
func (s Single) MessageBits(m engine.SubMsg) int {
	if s.Bits == nil {
		return 0
	}
	return s.Bits(m)
}

type singleProc struct {
	inst NodeInstance
	q    engine.Quiescer // inst's Quiescer view, nil if it has none
}

func (p singleProc) Start(ctx *engine.Ctx, input problems.Value) { p.inst.Start(ctx, input) }
func (p singleProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return p.inst.Broadcast(ctx, buf)
}
func (p singleProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	p.inst.Process(ctx, in, deg)
}
func (p singleProc) Output() problems.Value { return p.inst.Output() }

// Quiescent forwards the wrapped instance's engine.Quiescer contract; an
// instance without one never reports quiescent.
func (p singleProc) Quiescent() bool { return p.q != nil && p.q.Quiescent() }

// WrapSingle runs a dynamic algorithm standalone (all nodes start it at
// their wake round with their input).
func WrapSingle(name string, factory func(v graph.NodeID) NodeInstance) Single {
	return Single{Label: name, Factory: factory}
}

// purposeSlots bounds the purpose-space slots used to separate the PRF
// streams of concurrently live combiner instances: slot 0 belongs to the
// network-static algorithm, and dynamic instances share the other
// purposeSlots-1 slots by channel (dalgPurpose).
const purposeSlots = 4096

// instancePurpose derives the PRF purpose base for a combiner instance
// channel. Channel 0 is the network-static algorithm.
func instancePurpose(channel int32) prf.Purpose {
	return prf.InstanceStride * prf.Purpose(uint32(channel)%purposeSlots)
}

// checkChannelSpan panics unless span consecutive channels — the widest
// range a combiner's live dynamic instances occupy — fit the
// purposeSlots-1 dynamic PRF purpose slots. Beyond that, two live
// instances would draw the same randomness.
func checkChannelSpan(span int, what string) {
	if span > purposeSlots-1 {
		panic(fmt.Sprintf("core: %s puts %d live instance channels on %d PRF purpose slots; at most %d fit", what, span, purposeSlots-1, purposeSlots-1))
	}
}
