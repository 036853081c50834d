package core

import (
	"fmt"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// probeDyn is a scripted dynamic algorithm recording its lifecycle: each
// instance outputs Bot until it has processed `ready` rounds, then outputs
// 1000*startRound + input.
type probeDyn struct {
	window int
	log    *lifecycleLog
}

type lifecycleLog struct {
	started   []int // ctx.Round of each Start call (node 0 only)
	processed map[int]int
}

func (p *probeDyn) Name() string       { return "probe-dyn" }
func (p *probeDyn) WindowSize(int) int { return p.window }
func (p *probeDyn) NewNode(v graph.NodeID) NodeInstance {
	return &probeDynInst{p: p, v: v}
}
func (p *probeDyn) NewNodes(v graph.NodeID, k int, dst []NodeInstance) []NodeInstance {
	for range k {
		dst = append(dst, p.NewNode(v))
	}
	return dst
}

type probeDynInst struct {
	p     *probeDyn
	v     graph.NodeID
	start int
	input problems.Value
	age   int
}

func (i *probeDynInst) Start(ctx *engine.Ctx, input problems.Value) {
	i.start = ctx.Round
	i.input = input
	i.age = 0
	if i.v == 0 && i.p.log != nil {
		i.p.log.started = append(i.p.log.started, ctx.Round)
	}
}
func (i *probeDynInst) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return append(buf, engine.SubMsg{Kind: 9, A: int64(i.start)})
}
func (i *probeDynInst) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	i.age++
	if i.v == 0 && i.p.log != nil {
		i.p.log.processed[i.start]++
	}
	// Channel isolation: every message routed here must carry our start
	// round (senders set A = their instance start round, and aligned
	// instances start in the same engine round).
	for _, m := range in {
		if m.M.A != int64(i.start) {
			panic(fmt.Sprintf("instance %d received message from instance %d", i.start, m.M.A))
		}
	}
}
func (i *probeDynInst) Output() problems.Value {
	return problems.Value(1000*int64(i.start) + int64(i.input))
}

// probeStatic is a trivial network-static algorithm: outputs its node id
// + 1 from the first round on (a valid "partial solution" for the probe).
type probeStatic struct{ alpha, stab int }

func (p *probeStatic) Name() string              { return "probe-static" }
func (p *probeStatic) StabilizationTime(int) int { return p.stab }
func (p *probeStatic) Alpha() int                { return p.alpha }
func (p *probeStatic) NewNode(v graph.NodeID) NodeInstance {
	return &probeStaticInst{v: v}
}

type probeStaticInst struct {
	v   graph.NodeID
	out problems.Value
}

func (i *probeStaticInst) Start(ctx *engine.Ctx, input problems.Value) {
	i.out = problems.Value(int64(i.v) + 1)
}
func (i *probeStaticInst) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	return append(buf, engine.SubMsg{Kind: 8})
}
func (i *probeStaticInst) Process(*engine.Ctx, []engine.Incoming, int) {}
func (i *probeStaticInst) Output() problems.Value                      { return i.out }

func TestConcatInstanceLifecycle(t *testing.T) {
	const n = 4
	const T1 = 5
	log := &lifecycleLog{processed: make(map[int]int)}
	d := &probeDyn{window: T1, log: log}
	s := &probeStatic{alpha: 1, stab: 3}
	c := NewConcat(d, s, n)
	e := engine.New(engine.Config{N: n, Seed: 1}, adversary.Static{G: graph.Cycle(n)}, c)
	e.Run(10)
	// A new instance starts every round.
	if len(log.started) != 10 {
		t.Fatalf("instances started: %d, want 10", len(log.started))
	}
	for i, r := range log.started {
		if r != i+1 {
			t.Fatalf("instance %d started at round %d", i, r)
		}
	}
	// Every retired instance processed exactly T1-1 rounds.
	for start, procs := range log.processed {
		if start <= 10-(T1-1) && procs != T1-1 {
			t.Fatalf("instance started at %d processed %d rounds, want %d", start, procs, T1-1)
		}
	}
}

func TestConcatOutputIsOldestMatureInstance(t *testing.T) {
	const n = 3
	const T1 = 4
	d := &probeDyn{window: T1}
	s := &probeStatic{alpha: 1, stab: 2}
	c := NewConcat(d, s, n)
	e := engine.New(engine.Config{N: n, Seed: 2}, adversary.Static{G: graph.Path(n)}, c)
	// Warm-up: rounds 1..T1-2 output Bot.
	for r := 1; r <= T1-2; r++ {
		info := e.Step()
		if info.Outputs[0] != problems.Bot {
			t.Fatalf("round %d: output %d during warm-up, want ⊥", r, info.Outputs[0])
		}
	}
	// From round T1-1 on, output = instance started at round r-T1+2 with
	// input = static algorithm's output (node id+1).
	for r := T1 - 1; r <= 9; r++ {
		info := e.Step()
		wantStart := int64(r - T1 + 2)
		want := problems.Value(1000*wantStart + int64(0) + 1) // input = node0 id+1 = 1
		if info.Outputs[0] != want {
			t.Fatalf("round %d: output %d, want %d", r, info.Outputs[0], want)
		}
	}
}

func TestConcatChannelIsolation(t *testing.T) {
	// The probe instances panic on cross-channel messages; running with
	// several live instances over a connected graph exercises routing.
	const n = 6
	d := &probeDyn{window: 6}
	s := &probeStatic{alpha: 1, stab: 2}
	c := NewConcat(d, s, n)
	e := engine.New(engine.Config{N: n, Seed: 3}, adversary.Static{G: graph.Complete(n)}, c)
	e.Run(15) // panics on any routing error
}

func TestConcatPurposeSeparation(t *testing.T) {
	// Two live instances of the same algorithm in the same round must
	// draw different randomness: record the first Uint64 of each
	// instance's stream in one round.
	draws := make(map[uint64]string)
	d := &randProbe{window: 5, draws: draws}
	s := &probeStatic{alpha: 1, stab: 2}
	c := NewConcat(d, s, 2)
	e := engine.New(engine.Config{N: 2, Seed: 4}, adversary.Static{G: graph.Path(2)}, c)
	e.Run(6)
	// All recorded draws must be unique (distinct purposes per live
	// instance, distinct rounds, distinct nodes).
	if len(draws) == 0 {
		t.Fatal("no draws recorded")
	}
}

type randProbe struct {
	window int
	draws  map[uint64]string
}

func (p *randProbe) Name() string       { return "rand-probe" }
func (p *randProbe) WindowSize(int) int { return p.window }
func (p *randProbe) NewNode(v graph.NodeID) NodeInstance {
	return &randProbeInst{p: p, v: v}
}
func (p *randProbe) NewNodes(v graph.NodeID, k int, dst []NodeInstance) []NodeInstance {
	for range k {
		dst = append(dst, p.NewNode(v))
	}
	return dst
}

type randProbeInst struct {
	p     *randProbe
	v     graph.NodeID
	start int
}

func (i *randProbeInst) Start(ctx *engine.Ctx, input problems.Value) { i.start = ctx.Round }
func (i *randProbeInst) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	s := ctx.Stream(prf.PurposeLubyAlpha)
	draw := s.Uint64()
	key := fmt.Sprintf("n%d r%d i%d", i.v, ctx.Round, i.start)
	if prev, clash := i.p.draws[draw]; clash {
		panic(fmt.Sprintf("stream collision: %s and %s drew %x", prev, key, draw))
	}
	i.p.draws[draw] = key
	return buf
}
func (i *randProbeInst) Process(*engine.Ctx, []engine.Incoming, int) {}
func (i *randProbeInst) Output() problems.Value                      { return 1 }

func TestConcatNameAndAccessors(t *testing.T) {
	d := &probeDyn{window: 7}
	s := &probeStatic{alpha: 2, stab: 9}
	c := NewConcat(d, s, 5)
	if c.Name() != "concat(probe-dyn,probe-static)" {
		t.Fatalf("name = %q", c.Name())
	}
	if c.Alpha() != 2 || c.T1 != 7 || c.T2 != 9 || c.StabilityWait() != 16 {
		t.Fatalf("accessors wrong: α=%d T1=%d T2=%d wait=%d", c.Alpha(), c.T1, c.T2, c.StabilityWait())
	}
}

func TestConcatRejectsTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for T1 < 2")
		}
	}()
	NewConcat(&probeDyn{window: 1}, &probeStatic{alpha: 1, stab: 1}, 3)
}

func TestSingleAdapter(t *testing.T) {
	s := WrapSingle("x", func(v graph.NodeID) NodeInstance {
		return &probeStaticInst{v: v}
	})
	if s.Name() != "x" {
		t.Fatal("name wrong")
	}
	proc := s.NewNode(3)
	ctx := &engine.Ctx{Node: 3, Round: 1, Seed: 1}
	proc.Start(ctx, problems.Bot)
	if proc.Output() != 4 {
		t.Fatalf("output = %d, want 4", proc.Output())
	}
	if got := proc.Broadcast(ctx, nil); len(got) != 1 || got[0].Kind != 8 {
		t.Fatal("broadcast not forwarded")
	}
	if s.MessageBits(engine.SubMsg{}) != 0 {
		t.Fatal("nil Bits should yield 0")
	}
	s.Bits = func(engine.SubMsg) int { return 5 }
	if s.MessageBits(engine.SubMsg{}) != 5 {
		t.Fatal("Bits not forwarded")
	}
}

func TestLateWakeNodeOutputsBotUntilMature(t *testing.T) {
	const n = 4
	const T1 = 5
	d := &probeDyn{window: T1}
	s := &probeStatic{alpha: 1, stab: 2}
	c := NewConcat(d, s, n)
	sched := []int{1, 1, 1, 6} // node 3 wakes at round 6
	adv := &adversary.Wakeup{Inner: adversary.Static{G: graph.Complete(n)}, Schedule: sched}
	e := engine.New(engine.Config{N: n, Seed: 5}, adv, c)
	for r := 1; r <= 6+T1-3; r++ {
		info := e.Step()
		if r >= 6 && info.Outputs[3] != problems.Bot {
			t.Fatalf("round %d: late node output %d before maturity", r, info.Outputs[3])
		}
	}
	info := e.Step() // round 6+T1-2: node 3's first instance matured
	if info.Outputs[3] == problems.Bot {
		t.Fatal("late node still ⊥ after its pipeline matured")
	}
}
