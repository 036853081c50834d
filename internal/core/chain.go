package core

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Chain is the triple combiner sketched in the remark of Section 3:
// "In principle, using the same technique, one could also combine more
// than two algorithms. One could for example imagine to also have a
// dynamic network algorithm that has stronger guarantees, but only works
// in dynamic networks with much more limited dynamic changes."
//
// The network-static algorithm S runs continuously as before. Its output
// seeds a pipeline of Mid instances — a dynamic algorithm with a smaller
// window Tm whose outputs are the stronger guarantee under limited
// dynamics — and the mid-pipeline's output in turn seeds the outer
// pipeline of D instances with the full window T1. The chained algorithm
//
//	a) converges to a locally stable solution where the graph is locally
//	   static (within T1+Tm+T2 rounds),
//	b) under limited dynamics effectively carries the mid algorithm's
//	   Tm-dynamic guarantee through (the outer pipeline extends inputs
//	   that are already complete), and
//	c) always outputs a T1-dynamic solution, for arbitrary dynamics —
//	   because the outer dynamic algorithm re-witnesses its inputs (see
//	   the input-sanitization notes in the algorithm implementations),
//	   invalid mid outputs caused by heavy dynamics cannot poison it.
//
// Channel layout: 0 = S; with W = max(T1, Tm)-1, a mid instance of age a
// on even channel 2(W-a) and an outer instance of age a on odd channel
// 2(W-a)+1. Instances are aligned across nodes by age, as in Concat, so
// the channels lie in [0, 2·max(T1, Tm)-1] however long the run lasts;
// the mid and outer instances started in one round sit side by side, the
// oldest lowest.
type Chain struct {
	D   DynamicAlgorithm
	Mid DynamicAlgorithm
	S   NetworkStaticAlgorithm
	N   int

	T1 int
	Tm int
	T2 int

	// MidProbe, if set, receives each node's mid-pipeline output after
	// every round. The outer pipeline's latency (T1-1 rounds) means
	// freshness-style guarantees of the mid algorithm are observable
	// here, at the mid layer, rather than in the final output; consumers
	// that want the stronger limited-dynamics guarantee read this layer.
	// Called concurrently from engine workers; implementations must be
	// safe.
	MidProbe func(v graph.NodeID, round int, out problems.Value)
}

// NewChain builds the triple combination for a universe of n nodes.
func NewChain(d, mid DynamicAlgorithm, s NetworkStaticAlgorithm, n int) *Chain {
	t1 := d.WindowSize(n)
	tm := mid.WindowSize(n)
	if t1 < 2 || tm < 2 {
		panic(fmt.Sprintf("core: chain windows T1=%d, Tm=%d must be >= 2", t1, tm))
	}
	// Mid instances key their PRF purposes by 2r over the last Tm-1
	// start rounds r, and outer instances by 2r+1 over the last T1-1, so
	// the wider pipeline sets the span from the oldest live key to the
	// newest.
	checkChannelSpan(max(2*t1-3, 2*tm-2), fmt.Sprintf("chain windows T1=%d, Tm=%d", t1, tm))
	return &Chain{D: d, Mid: mid, S: s, N: n, T1: t1, Tm: tm, T2: s.StabilizationTime(n)}
}

// Name implements engine.Algorithm.
func (c *Chain) Name() string {
	return fmt.Sprintf("chain(%s,%s,%s)", c.D.Name(), c.Mid.Name(), c.S.Name())
}

// Alpha returns the locality radius inherited from the network-static part.
func (c *Chain) Alpha() int { return c.S.Alpha() }

// StabilityWait returns T1+Tm+T2: the analogue of Theorem 1.1(2) for the
// three-layer pipeline.
func (c *Chain) StabilityWait() int { return c.T1 + c.Tm + c.T2 }

// NewNode implements engine.Algorithm.
func (c *Chain) NewNode(v graph.NodeID) engine.NodeProc {
	return &chainProc{c: c, v: v}
}

type chainProc struct {
	c    *Chain
	v    graph.NodeID
	salg NodeInstance
	mids pipeline   // Tm-1 slots
	outs pipeline   // T1-1 slots
	ictx engine.Ctx // reusable callback context, see concatProc
}

func (p *chainProc) Start(ctx *engine.Ctx, input problems.Value) {
	p.salg = p.c.S.NewNode(p.v)
	sctx := *ctx
	sctx.PurposeBase = instancePurpose(0)
	p.salg.Start(&sctx, input)
}

// midOutput is the mid-pipeline's current output: the oldest mid instance
// that has run its full Tm-1 rounds (⊥ during warm-up).
func (p *chainProc) midOutput() problems.Value { return p.mids.output(p.c.Tm) }

// nextSlot returns the pipeline and index of the live instance of lower
// start key among mids slot *i and outs slot *j and advances past it; the
// pipeline is nil once both are exhausted. Each pipeline ascends by
// start key, and a lower key means a lower wire channel, so repeated
// calls walk all live instances in ascending channel order.
func (p *chainProc) nextSlot(i, j *int) (*pipeline, int) {
	mids, outs := p.mids.meta, p.outs.meta
	switch {
	case *i < len(mids) && (*j == len(outs) || mids[*i].ch < outs[*j].ch):
		*i++
		return &p.mids, *i - 1
	case *j < len(outs):
		*j++
		return &p.outs, *j - 1
	}
	return nil, 0
}

func (p *chainProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	// Capture the mid-pipeline output of the previous round before any
	// mutation (the outer pipeline's φ_{r-1}).
	midPrev := p.midOutput()

	// Start this round's mid instance on the static algorithm's output.
	midCh := int32(2 * ctx.Round)
	mid := p.mids.push(p.c.Tm-1, midCh, p.c.Mid, p.v)
	p.ictx = *ctx
	p.ictx.PurposeBase = dalgPurpose(midCh)
	mid.Start(&p.ictx, p.salg.Output())

	// Start this round's outer instance on the mid-pipeline output.
	outCh := int32(2*ctx.Round + 1)
	out := p.outs.push(p.c.T1-1, outCh, p.c.D, p.v)
	p.ictx.PurposeBase = dalgPurpose(outCh)
	out.Start(&p.ictx, midPrev)

	// Broadcast all three layers with channel tags, in ascending channel
	// order as the engine requires: S on channel 0, then the mid and
	// outer instances interleaved.
	p.ictx.PurposeBase = instancePurpose(0)
	start := len(buf)
	buf = p.salg.Broadcast(&p.ictx, buf)
	for i := start; i < len(buf); i++ {
		buf[i].Chan = 0
	}
	var i, j int
	mw, ow := p.purposes()
	for q, k := p.nextSlot(&i, &j); q != nil; q, k = p.nextSlot(&i, &j) {
		m := q.meta[k]
		p.ictx.PurposeBase = p.nextPurpose(q, &mw, &ow)
		start = len(buf)
		buf = q.inst[k].Broadcast(&p.ictx, buf)
		wire := p.wire(q, m.age)
		for b := start; b < len(buf); b++ {
			buf[b].Chan = wire
		}
	}
	return buf
}

// purposes starts the purpose walks of both pipelines: each pushes once
// per round, with start keys 2r (mid) and 2r+1 (outer), so within a
// pipeline consecutive keys are 2 apart.
func (p *chainProc) purposes() (mids, outs purposeWalk) {
	return p.mids.purposes(2), p.outs.purposes(2)
}

// nextPurpose returns the purpose base of the next instance of pipeline
// q in the nextSlot order, stepping q's walk.
func (p *chainProc) nextPurpose(q *pipeline, mids, outs *purposeWalk) prf.Purpose {
	if q == &p.mids {
		return mids.next()
	}
	return outs.next()
}

// wire is the channel of the instance of the given age in pipeline q:
// 2(W-age) for a mid instance, 2(W-age)+1 for an outer one.
func (p *chainProc) wire(q *pipeline, age int32) int32 {
	ch := 2 * (int32(max(p.c.T1, p.c.Tm)-1) - age)
	if q == &p.outs {
		ch++
	}
	return ch
}

func (p *chainProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	// Each instance's sub-inbox is the next run of the channel-sorted
	// inbox, as in concatProc.Process.
	run, rest := channelRun(in, 0)
	p.ictx = *ctx
	p.ictx.PurposeBase = instancePurpose(0)
	p.salg.Process(&p.ictx, run, deg)
	var i, j int
	mw, ow := p.purposes()
	for q, k := p.nextSlot(&i, &j); q != nil; q, k = p.nextSlot(&i, &j) {
		m := &q.meta[k]
		run = nil
		if len(rest) > 0 {
			run, rest = channelRun(rest, p.wire(q, m.age))
		}
		p.ictx.PurposeBase = p.nextPurpose(q, &mw, &ow)
		q.inst[k].Process(&p.ictx, run, deg)
		m.age++
	}
	if p.c.MidProbe != nil {
		p.c.MidProbe(p.v, ctx.Round, p.midOutput())
	}
}

// Output is the oldest mature outer instance, as in Algorithm 1.
func (p *chainProc) Output() problems.Value { return p.outs.output(p.c.T1) }
