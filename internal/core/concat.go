package core

import (
	"fmt"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// Concat is Algorithm 1 / Theorem 1.1: it runs one instance of a
// (T2, α)-network-static algorithm SAlg from each node's wake-up round,
// and a pipeline of T1-1 concurrently live instances of a T1-dynamic
// algorithm DAlg. In every round r each node starts a fresh DAlg instance
// on its current SAlg output φ_{r-1}, discards the oldest instance, and
// outputs the oldest live instance — which by then has run for T1-1 rounds
// and (property A.2) extends a partial solution into a T1-dynamic solution.
// If the α-neighborhood of a node is static, SAlg's output freezes within
// T2 rounds (property B.2) and, because DAlg is input-extending (A.1), so
// does Concat's output: Theorem 1.1(2).
//
// Instances are aligned across nodes by their age, as the paper notes a
// common global round counter is not needed: the instances two nodes
// started in the same round have the same age, and the age identifies an
// instance uniquely among the T1-1 live ones. SAlg's sub-messages go out
// on channel 0 and an instance of age a on channel T1-1-a, which lies in
// [1, T1-1], so the oldest instance has the lowest channel and a node's
// channels span T1 at most however long the run lasts. The start round
// is kept too (slotMeta.ch), for the instance's PRF purpose and for
// checkpoints.
type Concat struct {
	D DynamicAlgorithm
	S NetworkStaticAlgorithm
	N int

	T1   int
	T2   int
	Bits func(m engine.SubMsg) int
}

// NewConcat builds the combined algorithm for a universe of n nodes.
func NewConcat(d DynamicAlgorithm, s NetworkStaticAlgorithm, n int) *Concat {
	t1 := d.WindowSize(n)
	if t1 < 2 {
		panic(fmt.Sprintf("core: dynamic window T1 = %d < 2", t1))
	}
	checkChannelSpan(t1-1, fmt.Sprintf("dynamic window T1 = %d", t1))
	c := &Concat{D: d, S: s, N: n, T1: t1, T2: s.StabilizationTime(n)}
	db, dOK := d.(MessageBitsFunc)
	sb, sOK := s.(MessageBitsFunc)
	if dOK && sOK {
		c.Bits = func(m engine.SubMsg) int {
			if m.Chan == 0 {
				return sb.MessageBits(m)
			}
			return db.MessageBits(m)
		}
	}
	return c
}

// Name implements engine.Algorithm.
func (c *Concat) Name() string {
	return fmt.Sprintf("concat(%s,%s)", c.D.Name(), c.S.Name())
}

// Alpha returns the locality radius inherited from the network-static part.
func (c *Concat) Alpha() int { return c.S.Alpha() }

// StabilityWait returns T1+T2: by Theorem 1.1(2) the output of a node
// whose α-ball is static from round r on is fixed from round r+T1+T2.
func (c *Concat) StabilityWait() int { return c.T1 + c.T2 }

// MessageBits implements engine.BitSizer when both parts declare sizes.
func (c *Concat) MessageBits(m engine.SubMsg) int {
	if c.Bits == nil {
		return 0
	}
	return c.Bits(m)
}

// NewNode implements engine.Algorithm.
func (c *Concat) NewNode(v graph.NodeID) engine.NodeProc {
	return &concatProc{c: c, v: v}
}

type concatProc struct {
	c    *Concat
	v    graph.NodeID
	salg NodeInstance
	dal  pipeline // T1-1 slots
	// ictx is the reusable context handed to instance callbacks: passing
	// a fresh stack copy through the NodeInstance interface would escape
	// to the heap on every call — one allocation per instance per round.
	// A callback copies the engine's context into it once and then sets
	// only PurposeBase per instance, so instances must neither modify it
	// nor retain the pointer beyond the call (see NodeInstance).
	ictx engine.Ctx
}

// dalgSlot is the PRF purpose slot of a dynamic instance's start key ch,
// in [1, purposeSlots-1]: slot 0 is reserved for SAlg. Any
// purposeSlots-1 consecutive start keys map to distinct slots; the
// constructors check that the live keys fit (checkChannelSpan).
func dalgSlot(ch int32) uint32 { return 1 + (uint32(ch)-1)%(purposeSlots-1) }

// dalgPurpose derives the purpose base of the dynamic instance with start
// key ch.
func dalgPurpose(ch int32) prf.Purpose { return instancePurpose(int32(dalgSlot(ch))) }

// purposeWalk yields the purpose bases of a pipeline's live instances,
// oldest first, without a modulo per instance. A pipeline's start keys
// rise by a fixed step (pipeline.load rejects any other shape), so each
// slot follows the one before it by that step, wrapping past
// purposeSlots-1 back to 1 exactly as dalgSlot's modulo does.
type purposeWalk struct{ slot, step uint32 }

// purposes starts a walk at the pipeline's oldest live instance; step is
// the distance between consecutive start keys.
func (p *pipeline) purposes(step uint32) purposeWalk {
	if len(p.meta) == 0 {
		return purposeWalk{}
	}
	return purposeWalk{slot: dalgSlot(p.meta[0].ch), step: step}
}

// next returns the current instance's purpose base and steps to the next
// instance.
func (w *purposeWalk) next() prf.Purpose {
	pb := instancePurpose(int32(w.slot))
	if w.slot += w.step; w.slot >= purposeSlots {
		w.slot -= purposeSlots - 1
	}
	return pb
}

// channelRun splits the run on channel ch off the front of a Chan-sorted
// inbox, dropping the lower channels before it (instances this node does
// not run). The run is capped at its length, so an instance appending to
// it cannot write into the next instance's run.
func channelRun(in []engine.Incoming, ch int32) (run, rest []engine.Incoming) {
	i := 0
	for i < len(in) && in[i].M.Chan < ch {
		i++
	}
	j := i
	for j < len(in) && in[j].M.Chan == ch {
		j++
	}
	return in[i:j:j], in[j:]
}

func (p *concatProc) Start(ctx *engine.Ctx, input problems.Value) {
	p.salg = p.c.S.NewNode(p.v)
	sctx := *ctx
	sctx.PurposeBase = instancePurpose(0)
	p.salg.Start(&sctx, input)
}

func (p *concatProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	// Line 1 of Algorithm 1: start a new DAlg instance on the current
	// SAlg output. Lines 2-3: the pipeline holds at most T1-1 live
	// instances, so once it is full the oldest one is discarded — and
	// recycled as the new one.
	ch := int32(ctx.Round)
	inst := p.dal.push(p.c.T1-1, ch, p.c.D, p.v)
	p.ictx = *ctx
	p.ictx.PurposeBase = dalgPurpose(ch)
	inst.Start(&p.ictx, p.salg.Output())

	// SAlg sub-messages on channel 0, then each live DAlg instance on its
	// age's channel: the pipeline runs from the oldest instance to the
	// newest, so the outbox is in ascending channel order, as the engine
	// requires.
	p.ictx.PurposeBase = instancePurpose(0)
	start := len(buf)
	buf = p.salg.Broadcast(&p.ictx, buf)
	for i := start; i < len(buf); i++ {
		buf[i].Chan = 0
	}
	pw := p.dal.purposes(1)
	for i, m := range p.dal.meta {
		p.ictx.PurposeBase = pw.next()
		start = len(buf)
		buf = p.dal.inst[i].Broadcast(&p.ictx, buf)
		wire := p.wire(m.age)
		for j := start; j < len(buf); j++ {
			buf[j].Chan = wire
		}
	}
	return buf
}

// wire is the channel of the instance of the given age.
func (p *concatProc) wire(age int32) int32 { return int32(p.c.T1-1) - age }

func (p *concatProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	// The inbox arrives sorted by channel, and channel 0 and the
	// pipeline's channels ascend in slot order, so each instance's
	// sub-inbox is the next contiguous run — sliced, not copied. An
	// instance's age moves on only after its run is taken, so Process
	// reads the channels Broadcast wrote. Once the inbox is used up, the
	// remaining instances get an empty run without a search.
	run, rest := channelRun(in, 0)
	p.ictx = *ctx
	p.ictx.PurposeBase = instancePurpose(0)
	p.salg.Process(&p.ictx, run, deg)
	pw := p.dal.purposes(1)
	for i := range p.dal.meta {
		m := &p.dal.meta[i]
		run = nil
		if len(rest) > 0 {
			run, rest = channelRun(rest, p.wire(m.age))
		}
		p.ictx.PurposeBase = pw.next()
		p.dal.inst[i].Process(&p.ictx, run, deg)
		m.age++
	}
}

// Output implements line 7 of Algorithm 1: the output of the oldest live
// DAlg instance once it has run its full T1-1 rounds; ⊥ while the pipeline
// is still warming up after the node's wake round.
func (p *concatProc) Output() problems.Value { return p.dal.output(p.c.T1) }

// pipelineBlock is the number of instances a filling pipeline takes from
// one NewNodes call.
const pipelineBlock = 8

// pipeline is one node's run of live DAlg instances, front = oldest. A
// filling pipeline takes its instances in blocks of pipelineBlock, each
// one allocation from DynamicAlgorithm.NewNodes, so that a node's
// instances sit together in memory (see the package comment), and
// recycling (push) keeps every block in place once the pipeline is full.
type pipeline struct {
	// inst holds the live instances, followed by the instances of the
	// newest block that are not live yet. Its capacity is the pipeline
	// size, so NewNodes appends in place and rotation never reallocates.
	inst []NodeInstance
	// meta holds each live instance's channel and age; len(meta) is the
	// number of live instances.
	meta []slotMeta
}

// slotMeta is the combiner's bookkeeping for one live instance. ch is
// the instance's start round (Chain: a function of it), which keys its
// PRF purpose; the channel on the wire is derived from age.
type slotMeta struct {
	ch  int32
	age int32 // rounds processed
}

// push starts the pipeline's newest slot, with start key ch, and returns its
// instance for the caller to Start. While the pipeline fills, the slot
// takes the next instance of the newest block, and a spent block is
// followed by a new one of up to pipelineBlock instances from f. Once
// the pipeline holds size instances, push evicts the oldest, shifts the
// rest down in place and recycles the evicted instance as the newest.
// By the NodeInstance and NewNodes contracts, a Started block or
// recycled instance is indistinguishable from a fresh NewNode instance.
func (p *pipeline) push(size int, ch int32, f DynamicAlgorithm, v graph.NodeID) NodeInstance {
	n := len(p.meta)
	if n < size {
		if n == len(p.inst) {
			if p.inst == nil {
				p.inst = make([]NodeInstance, 0, size)
				p.meta = make([]slotMeta, 0, size)
			}
			p.inst = f.NewNodes(v, min(pipelineBlock, size-n), p.inst)
		}
		p.meta = append(p.meta, slotMeta{ch: ch})
		return p.inst[n]
	}
	inst := p.inst[0]
	copy(p.inst, p.inst[1:])
	p.inst[n-1] = inst
	copy(p.meta, p.meta[1:])
	p.meta[n-1] = slotMeta{ch: ch}
	return inst
}

// output is the pipeline's output: the oldest live instance's once it
// has run its full window-1 rounds, ⊥ while the pipeline warms up.
func (p *pipeline) output(window int) problems.Value {
	if len(p.meta) == 0 || p.meta[0].age < int32(window-1) {
		return problems.Bot
	}
	return p.inst[0].Output()
}
