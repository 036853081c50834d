package core

import (
	"fmt"
	"sync"

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
//
// A node that is isolated and whose instances have all settled is parked
// (see Settler and the package comment): it skips its instance callbacks
// until it regains an edge or is checkpointed, and then replays the
// skipped rounds.
type Concat struct {
	D DynamicAlgorithm
	S NetworkStaticAlgorithm
	N int

	T1   int
	T2   int
	Bits func(m engine.SubMsg) int

	// replayMu guards replayBuf, the outbox scratch of the replays that
	// SaveState runs on parked nodes. A checkpoint writes its nodes one
	// by one, but engines sharing this Concat may checkpoint at once.
	replayMu  sync.Mutex
	replayBuf []engine.SubMsg
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
	c *Concat
	v graph.NodeID
	// parked is nonzero while the node is parked (see tryPark): the last
	// round it processed. It sits in v's padding, so parking costs a node
	// no memory.
	parked int32
	salg   NodeInstance
	dal    pipeline // T1-1 slots
	// ictx is the reusable context handed to instance callbacks: passing
	// a fresh stack copy through the NodeInstance interface would escape
	// to the heap on every call — one allocation per instance per round.
	// A callback copies the engine's context into it once and then sets
	// only PurposeBase per instance, so instances must neither modify it
	// nor retain the pointer beyond the call (see NodeInstance). While
	// the node is parked, no callback runs, so ictx keeps the context of
	// the round the node parked in: its Round is the park round r0 and
	// its Seed the engine seed, which the replay needs (unpark).
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

// Broadcast runs the node's round. A parked node that is still isolated
// skips it: its messages would reach no neighbor. One that has an edge
// again first replays the rounds it skipped, in the outbox's spare
// capacity.
func (p *concatProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if p.parked != 0 {
		if ctx.Isolated {
			return buf
		}
		buf = p.unpark(buf)
	}
	return p.broadcast(ctx, buf)
}

func (p *concatProc) broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
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

// Process runs the receive half of the node's round. A parked node only
// notes the round; an isolated node that has settled parks (tryPark).
func (p *concatProc) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	if p.parked != 0 {
		if deg != 0 {
			panic(fmt.Sprintf("core: node %d parked in round %d has degree %d in round %d, but broadcast as isolated", p.v, p.ictx.Round, deg, ctx.Round))
		}
		p.parked = int32(ctx.Round)
		return
	}
	p.process(ctx, in, deg)
	if deg == 0 {
		p.tryPark(ctx)
	}
}

func (p *concatProc) process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
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
func (p *concatProc) Output() problems.Value {
	if p.parked != 0 {
		return p.parkedOutput()
	}
	return p.dal.output(p.c.T1)
}

// tryPark parks the node at the end of an isolated round r0 if SAlg has
// settled on an output x ≠ ⊥ and every live DAlg instance has settled,
// the newest on x. Every instance the node starts from then on starts on
// x while it stays isolated, and by A.1 outputs x from its start — as
// the newest instance, settled on x, witnesses. While parked, the node
// skips its instance callbacks, and the pipeline keeps its shape of
// round r0.
func (p *concatProc) tryPark(ctx *engine.Ctx) {
	if s, ok := p.salg.(Settler); !ok || !s.Settled() {
		return
	}
	x := p.salg.Output()
	n := len(p.dal.meta)
	if x == problems.Bot || n == 0 || p.dal.inst[n-1].Output() != x {
		return
	}
	for _, inst := range p.dal.inst[:n] {
		if s, ok := inst.(Settler); !ok || !s.Settled() {
			return
		}
	}
	p.parked = int32(ctx.Round)
}

// parkedOutput is the output of the pipeline an unparked node would hold
// after the last round it processed, in O(1). The parked pipeline holds
// the m live instances of round r0; in each of the k rounds since, one
// instance started on SAlg's settled output x and, once the pipeline was
// full, the oldest was evicted, e in all. If an instance of round r0 is
// still live, the oldest is instance e, which has settled: its output
// once it has run T1-1 rounds, ⊥ before. Otherwise the oldest started on
// x while parked.
func (p *concatProc) parkedOutput() problems.Value {
	size := p.c.T1 - 1
	m := len(p.dal.meta)
	k := int(p.parked) - p.ictx.Round
	e := max(0, m+k-size)
	if e >= m {
		return p.salg.Output()
	}
	if int(p.dal.meta[e].age)+k < size {
		return problems.Bot
	}
	return p.dal.inst[e].Output()
}

// unpark leaves the parked state by replaying rounds r0+1 through the
// last round processed as they would have run: the node's own Broadcast
// and Process with an empty inbox and degree 0, under the contexts the
// engine passed. By the
// determinism contract the PRF streams depend only on (seed, node,
// round, purpose), so the replay is exact. The replay's outboxes are
// written past len(scratch) and dropped; unpark returns scratch,
// possibly regrown, at its length.
func (p *concatProc) unpark(scratch []engine.SubMsg) []engine.SubMsg {
	r0, last := p.ictx.Round, int(p.parked)
	p.parked = 0
	n := len(scratch)
	ctx := engine.Ctx{Node: p.v, Seed: p.ictx.Seed, Isolated: true}
	for r := r0 + 1; r <= last; r++ {
		ctx.Round = r
		scratch = p.broadcast(&ctx, scratch)[:n]
		p.process(&ctx, nil, 0)
	}
	return scratch
}

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
