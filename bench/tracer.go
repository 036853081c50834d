package main

import (
	"time"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// layers accumulates the time a traced run spends inside each module,
// measured from outside by wrappers around the adversary, the algorithm
// and its node processes. The per-round fields are reset by the harness
// before every Step; the counters run for the whole session. A traced
// run uses Workers: 1, so every callback runs on the harness goroutine
// and the plain fields need no synchronization.
type layers struct {
	adv, newNode, bcast, proc time.Duration

	nodeCalls, idleCalls int64
}

func (l *layers) resetRound() { l.adv, l.newNode, l.bcast, l.proc = 0, 0, 0, 0 }

// algos is the round's total time inside algorithm callbacks.
func (l *layers) algos() time.Duration { return l.newNode + l.bcast + l.proc }

// The wrappers below must keep the run's code paths: the engine and the
// checkpoint plane discover optional behaviour by type assertion, so a
// wrapper implements an optional interface exactly when the wrapped
// value does. A wrapper that hid ckpt.Stater would make checkpoints
// fail, and one that always claimed engine.BitSizer would switch on bit
// accounting the untraced run skips.

// tAdv times Adversary.Step.
type tAdv struct {
	inner adversary.Adversary
	l     *layers
}

func (a *tAdv) Step(v adversary.View) adversary.Step {
	t0 := time.Now()
	st := a.inner.Step(v)
	a.l.adv += time.Since(t0)
	return st
}

type tAdvCk struct {
	*tAdv
	adversary.Checkpointer
}

type tAdvDeltaCk struct {
	*tAdv
	adversary.DeltaCheckpointer
}

func wrapAdversary(inner adversary.Adversary, l *layers) adversary.Adversary {
	a := &tAdv{inner: inner, l: l}
	switch ck := inner.(type) {
	case adversary.DeltaCheckpointer:
		return tAdvDeltaCk{a, ck}
	case adversary.Checkpointer:
		return tAdvCk{a, ck}
	}
	return a
}

// tAlgo times Algorithm.NewNode and wraps every node it creates.
type tAlgo struct {
	inner engine.Algorithm
	l     *layers
}

func (a *tAlgo) Name() string { return a.inner.Name() }

func (a *tAlgo) NewNode(v graph.NodeID) engine.NodeProc {
	t0 := time.Now()
	np := a.inner.NewNode(v)
	a.l.newNode += time.Since(t0)
	return wrapNode(np, a.l)
}

type tAlgoArena struct {
	*tAlgo
	aa engine.ArenaAlgorithm
}

// NewNodeArena forwards restores to the arena path; its time belongs to
// the checkpoint layer, which is timed around the restore as a whole.
func (a tAlgoArena) NewNodeArena(v graph.NodeID, r *ckpt.Reader) engine.NodeProc {
	return wrapNode(a.aa.NewNodeArena(v, r), a.l)
}

type tAlgoBits struct {
	*tAlgo
	engine.BitSizer
}

type tAlgoArenaBits struct {
	tAlgoArena
	engine.BitSizer
}

func wrapAlgorithm(inner engine.Algorithm, l *layers) engine.Algorithm {
	a := &tAlgo{inner: inner, l: l}
	aa, isArena := inner.(engine.ArenaAlgorithm)
	bs, isBits := inner.(engine.BitSizer)
	switch {
	case isArena && isBits:
		return tAlgoArenaBits{tAlgoArena{a, aa}, bs}
	case isArena:
		return tAlgoArena{a, aa}
	case isBits:
		return tAlgoBits{a, bs}
	}
	return a
}

// tNode times a node's callbacks and classifies its rounds: a round is
// idle when the node delivered nothing (empty broadcast or degree 0) and
// its output did not change.
type tNode struct {
	inner engine.NodeProc
	l     *layers
	last  problems.Value
	sent  bool
}

func (n *tNode) Start(ctx *engine.Ctx, input problems.Value) {
	t0 := time.Now()
	n.inner.Start(ctx, input)
	n.l.newNode += time.Since(t0)
	n.last = n.inner.Output()
}

func (n *tNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	before := len(buf)
	t0 := time.Now()
	buf = n.inner.Broadcast(ctx, buf)
	n.l.bcast += time.Since(t0)
	n.sent = len(buf) > before
	n.l.nodeCalls++
	return buf
}

func (n *tNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	t0 := time.Now()
	n.inner.Process(ctx, in, deg)
	n.l.proc += time.Since(t0)
	n.l.nodeCalls++
	out := n.inner.Output()
	if (!n.sent || deg == 0) && out == n.last {
		n.l.idleCalls += 2 // this round's Broadcast and Process
	}
	n.last = out
}

func (n *tNode) Output() problems.Value { return n.inner.Output() }

type tNodeQ struct {
	*tNode
	engine.Quiescer
}

type tNodeS struct {
	*tNode
	st ckpt.Stater
}

func (n tNodeS) SaveState(w *ckpt.Writer) { n.st.SaveState(w) }

func (n tNodeS) LoadState(r *ckpt.Reader) {
	n.st.LoadState(r)
	n.last = n.inner.Output()
}

type tNodeQS struct {
	tNodeS
	engine.Quiescer
}

func wrapNode(np engine.NodeProc, l *layers) engine.NodeProc {
	n := &tNode{inner: np, l: l}
	q, isQ := np.(engine.Quiescer)
	st, isS := np.(ckpt.Stater)
	switch {
	case isQ && isS:
		return tNodeQS{tNodeS{n, st}, q}
	case isS:
		return tNodeS{n, st}
	case isQ:
		return tNodeQ{n, q}
	}
	return n
}
