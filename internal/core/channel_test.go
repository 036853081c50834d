package core_test

import (
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// chanSpy wraps a combiner and records the channels of every outbox
// broadcast from round from on.
type chanSpy struct {
	engine.Algorithm
	from int
	seen map[int32]bool
}

func (s *chanSpy) NewNode(v graph.NodeID) engine.NodeProc {
	return &spyProc{NodeProc: s.Algorithm.NewNode(v), s: s}
}

type spyProc struct {
	engine.NodeProc
	s *chanSpy
}

func (p *spyProc) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	start := len(buf)
	buf = p.NodeProc.Broadcast(ctx, buf)
	if ctx.Round >= p.s.from {
		for _, m := range buf[start:] {
			p.s.seen[m.Chan] = true
		}
	}
	return buf
}

// TestWireChannelsStayInWindow: the combiners put an instance's age on
// the wire, not its start round, so however long a run lasts their
// channels stay in a range set by the windows — Concat's in [0, T1-1],
// Chain's in [0, 2·max(T1, Tm)-1] — and the engine's per-receiver
// counting sort never grows with the round number. Each combiner runs
// under churn for 40 windows; the channels of its last window must fill
// that range's top and stay inside it.
func TestWireChannelsStayInWindow(t *testing.T) {
	const n = 64
	dyn := func(window int) core.DynamicAlgorithm { return &coloring.DColorFactory{N: n, Window: window} }
	s := &coloring.SColorFactory{N: n}
	t1 := coloring.DefaultColoringWindow(n)
	cases := []struct {
		name   string
		algo   engine.Algorithm
		window int // the widest pipeline's window
		top    int32
	}{
		{"concat", core.NewConcat(dyn(0), s, n), t1, int32(t1 - 1)},
		{"chain-outer-wider", core.NewChain(dyn(12), dyn(5), s, n), 12, 2*12 - 1},
		{"chain-mid-wider", core.NewChain(dyn(6), dyn(11), s, n), 11, 2*11 - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rounds := 40 * tc.window
			spy := &chanSpy{Algorithm: tc.algo, from: rounds - tc.window, seen: map[int32]bool{}}
			base := graph.GNP(n, 8.0/n, prf.NewStream(5, 0, 0, prf.PurposeWorkload))
			adv := &adversary.Churn{Base: base, Add: 4, Del: 4, Seed: 6}
			e := engine.New(engine.Config{N: n, Seed: 7, Workers: 1}, adv, spy)
			e.Run(rounds)
			if !spy.seen[0] || !spy.seen[tc.top] {
				t.Fatalf("channels %v miss 0 or the top channel %d", spy.seen, tc.top)
			}
			for ch := range spy.seen {
				if ch < 0 || ch > tc.top {
					t.Fatalf("from round %d: channel %d outside [0, %d]", spy.from, ch, tc.top)
				}
			}
		})
	}
}
