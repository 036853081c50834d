package engine

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// chanAlgo is a toy multi-channel algorithm: each round a node emits 0-3
// sub-messages on each channel of one of two channel sets, in ascending
// channel order, numbering its outbox in B. Every third round it stays on
// channel 0 only, so both delivery paths — the one-pass append and the
// counting sort — are exercised. The set alternates with node and round:
// a dense run, and a sparse wide one with gaps and a negative channel, so
// receivers see either set or their union. Process checks that the inbox
// is stably sorted by (Chan, sender, outbox position) and outputs a hash
// of it, so equal outputs mean equal inboxes.
type chanAlgo struct{}

func (chanAlgo) Name() string                    { return "chan-toy" }
func (chanAlgo) NewNode(v graph.NodeID) NodeProc { return &chanNode{v: v} }

var toyChannels = [2][]int32{{-1, 0, 1, 2, 5, 7}, {-7, 0, 3, 900}}

type chanNode struct {
	v   graph.NodeID
	out problems.Value
}

func (c *chanNode) Start(*Ctx, problems.Value) {}

func (c *chanNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	s := ctx.Stream(prf.PurposeWorkload)
	chans := toyChannels[(ctx.Round+int(c.v))%2]
	if ctx.Round%3 == 0 {
		chans = []int32{0}
	}
	for _, ch := range chans {
		for k := s.Intn(4); k > 0; k-- {
			buf = append(buf, SubMsg{Chan: ch, Kind: 1, A: int64(c.v)<<32 | int64(len(buf))})
		}
	}
	return buf
}

func (c *chanNode) Process(ctx *Ctx, in []Incoming, deg int) {
	h := fnv.New64a()
	for i, m := range in {
		if m.M.A>>32 != int64(m.From) {
			c.out = -1
			return
		}
		if i > 0 {
			p := in[i-1]
			ordered := p.M.Chan < m.M.Chan ||
				p.M.Chan == m.M.Chan && (p.From < m.From || p.From == m.From && outboxIndex(p.M) < outboxIndex(m.M))
			if !ordered {
				c.out = -1
				return
			}
		}
		fmt.Fprintf(h, "%d:%d:%d;", m.From, m.M.Chan, outboxIndex(m.M))
	}
	c.out = problems.Value(h.Sum64() >> 2)
}

// outboxIndex is the sender's outbox index that a chanNode message
// carries in the low half of A, below the sender's id.
func outboxIndex(m SubMsg) int64 { return m.A & (1<<32 - 1) }

func (c *chanNode) Output() problems.Value { return c.out }

// TestDeliverySortedByChannel pins the delivery contract: every inbox is
// stably sorted by (Chan, adjacency order), and the inboxes are the
// reference walk's whatever the worker count.
func TestDeliverySortedByChannel(t *testing.T) {
	const n, rounds = 1024, 12 // above serialThreshold so sharding engages
	ref := RunReference(Config{N: n, Seed: 42}, churnAdv(n)(), chanAlgo{}, rounds)
	for _, workers := range []int{1, 4} {
		e := New(Config{N: n, Seed: 42, Workers: workers}, churnAdv(n)(), chanAlgo{})
		e.OnRound(func(info *RoundInfo) {
			want := ref[info.Round-1]
			if info.Messages != want.Messages {
				t.Fatalf("workers=%d round %d: messages %d, reference %d", workers, info.Round, info.Messages, want.Messages)
			}
			for v, out := range info.Outputs {
				if out == -1 {
					t.Fatalf("workers=%d round %d node %d: inbox not sorted by (Chan, adjacency order)", workers, info.Round, v)
				}
				if out != want.Outputs[v] {
					t.Fatalf("workers=%d round %d node %d: inbox differs from the reference walk's", workers, info.Round, v)
				}
			}
		})
		e.Run(rounds)
	}
}

// unsortedAlgo emits channels 2 then 1 at node 3 in round 2.
type unsortedAlgo struct{}

func (unsortedAlgo) Name() string                    { return "unsorted" }
func (unsortedAlgo) NewNode(v graph.NodeID) NodeProc { return &unsortedNode{v: v} }

type unsortedNode struct{ v graph.NodeID }

func (u *unsortedNode) Start(*Ctx, problems.Value) {}
func (u *unsortedNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	if u.v == 3 && ctx.Round == 2 {
		return append(buf, SubMsg{Chan: 2}, SubMsg{Chan: 1})
	}
	return append(buf, SubMsg{Chan: 1}, SubMsg{Chan: 2})
}
func (u *unsortedNode) Process(*Ctx, []Incoming, int) {}
func (u *unsortedNode) Output() problems.Value        { return 1 }

// TestUnsortedOutboxPanics: an outbox out of Chan order is a contract
// violation reported with the offending node and round. The dense=false
// suffix keeps the subtest ID stable; the engine has no other round
// walk.
func TestUnsortedOutboxPanics(t *testing.T) {
	t.Run("dense=false", func(t *testing.T) {
		e := New(Config{N: 8, Seed: 1, Workers: 1}, adversary.Static{G: graph.Complete(8)}, unsortedAlgo{})
		e.Step()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "round 2 node 3") {
				t.Fatalf("panic %q does not name round 2 node 3", msg)
			}
		}()
		e.Step()
	})
}

// spanAlgo broadcasts on channel lo at node 0 and on channel hi at the
// last node in round 2, and on channel 0 everywhere else.
type spanAlgo struct {
	n      graph.NodeID
	lo, hi int32
}

func (a spanAlgo) Name() string                    { return "span" }
func (a spanAlgo) NewNode(v graph.NodeID) NodeProc { return &spanNode{a: a, v: v} }

type spanNode struct {
	a spanAlgo
	v graph.NodeID
}

func (s *spanNode) Start(*Ctx, problems.Value) {}
func (s *spanNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	var ch int32
	switch {
	case ctx.Round != 2:
	case s.v == 0:
		ch = s.a.lo
	case s.v == s.a.n-1:
		ch = s.a.hi
	}
	return append(buf, SubMsg{Chan: ch})
}
func (s *spanNode) Process(*Ctx, []Incoming, int) {}
func (s *spanNode) Output() problems.Value        { return 1 }

// TestChannelSpanGuard: delivery counts messages per channel, so a round
// whose channels span more than maxChanSpan is refused at the barrier,
// with the round and both channels named. The two ends come from the
// first and the last node, which sit in different worker shards. A round
// spanning exactly maxChanSpan channels is delivered. The dense=false
// suffix keeps the subtest IDs stable; the engine has no other round
// walk.
func TestChannelSpanGuard(t *testing.T) {
	const n = 1024 // above serialThreshold so the fold spans workers
	cases := []struct {
		lo, hi int32
		panics bool
	}{
		{-5, maxChanSpan - 6, false},
		{-5, maxChanSpan - 5, true},
		{0, 1 << 30, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%d..%d/dense=false", tc.lo, tc.hi), func(t *testing.T) {
			algo := spanAlgo{n: n, lo: tc.lo, hi: tc.hi}
			e := New(Config{N: n, Seed: 1, Workers: 4}, adversary.Static{G: graph.Cycle(n)}, algo)
			e.Step()
			defer func() {
				msg := recover()
				if (msg != nil) != tc.panics {
					t.Fatalf("panic = %v, want panic %v", msg, tc.panics)
				}
				want := fmt.Sprintf("round 2 broadcast channels %d to %d", tc.lo, tc.hi)
				if msg != nil && !strings.Contains(fmt.Sprint(msg), want) {
					t.Fatalf("panic %q does not name %q", msg, want)
				}
			}()
			if info := e.Step(); info.Messages != 2*n {
				t.Fatalf("round 2 delivered %d messages, want %d", info.Messages, 2*n)
			}
		})
	}
}

// bitsAlgo is chanAlgo with declared message sizes; each node outputs
// the bits of its inbox.
type bitsAlgo struct{ chanAlgo }

func (bitsAlgo) NewNode(v graph.NodeID) NodeProc { return &bitsNode{chanNode{v: v}} }
func (bitsAlgo) MessageBits(m SubMsg) int        { return 1 + int(m.Chan&7) + int(outboxIndex(m)%5) }

type bitsNode struct{ chanNode }

func (b *bitsNode) Process(ctx *Ctx, in []Incoming, deg int) {
	var sum int64
	for _, m := range in {
		sum += int64(bitsAlgo{}.MessageBits(m.M))
	}
	b.out = problems.Value(sum)
}

// TestBitsMatchInboxes: the engine accounts bits per sender, as the
// outbox's bits times the sender's degree, and skips sizing for isolated
// senders. The round's Bits must still equal the bits every receiver
// finds in its inbox, and the reference walk's Bits, on a churned sparse
// graph with isolated and degree-1 nodes.
func TestBitsMatchInboxes(t *testing.T) {
	const n, rounds = 1024, 9
	ref := RunReference(Config{N: n, Seed: 42}, churnAdv(n)(), bitsAlgo{}, rounds)
	for _, workers := range []int{1, 4} {
		e := New(Config{N: n, Seed: 42, Workers: workers}, churnAdv(n)(), bitsAlgo{})
		isolated := 0
		e.OnRound(func(info *RoundInfo) {
			var sum int64
			for v, out := range info.Outputs {
				sum += int64(out)
				if info.Graph().Degree(graph.NodeID(v)) == 0 {
					isolated++
				}
			}
			if want := ref[info.Round-1].Bits; info.Bits != sum || info.Bits != want {
				t.Fatalf("workers=%d round %d: Bits %d, inboxes hold %d, reference %d", workers, info.Round, info.Bits, sum, want)
			}
		})
		e.Run(rounds)
		if isolated == 0 {
			t.Fatalf("workers=%d: no isolated node in %d rounds", workers, rounds)
		}
	}
}

// beaconAlgo probes the delivery gate: every node beacons one sub-message
// each round and reports Quiescent exactly while its last processed round
// left it isolated. A non-empty Broadcast breaks the letter of the
// Quiescer contract, but an isolated node's beacon reaches no one, so the
// sparse plane's skipping it is unobservable until an edge touches the
// node; the touch resets its quiescence and it beacons again that very
// round. A node dropped while isolated and revived by an edge add in
// round r must therefore be heard by its new neighbor in round r, just
// as in the reference walk. Each Process records its inbox hash (0 when
// empty) per round and node, and calls per node; the output folds the
// hashes of non-empty inboxes, so it freezes while the node is isolated.
// Even rounds beacon on channels 0-2, odd rounds on channel 0 only, so
// both delivery paths are probed.
type beaconAlgo struct {
	inbox [][]uint64 // [round][node] inbox hash
	calls []int      // Process calls per node
}

func (a *beaconAlgo) Name() string                    { return "beacon" }
func (a *beaconAlgo) NewNode(v graph.NodeID) NodeProc { return &beaconNode{a: a, v: v, deg: -1} }

type beaconNode struct {
	a   *beaconAlgo
	v   graph.NodeID
	deg int
	out problems.Value
}

func (b *beaconNode) Start(*Ctx, problems.Value) {}

func (b *beaconNode) Broadcast(ctx *Ctx, buf []SubMsg) []SubMsg {
	var ch int32
	if ctx.Round%2 == 0 {
		ch = int32(b.v % 3)
	}
	s := ctx.Stream(prf.PurposeWorkload)
	return append(buf, SubMsg{Chan: ch, Kind: 1, A: int64(b.v)<<20 | int64(s.Intn(1<<20))})
}

func (b *beaconNode) Process(ctx *Ctx, in []Incoming, deg int) {
	b.deg = deg
	b.a.calls[b.v]++
	if len(in) == 0 {
		return
	}
	h := fnv.New64a()
	for _, m := range in {
		fmt.Fprintf(h, "%d:%d:%d;", m.From, m.M.Chan, m.M.A)
	}
	sum := h.Sum64() | 1
	b.a.inbox[ctx.Round][b.v] = sum
	b.out = problems.Value((uint64(b.out)*31 ^ sum) >> 2)
}

func (b *beaconNode) Output() problems.Value { return b.out }
func (b *beaconNode) Quiescent() bool        { return b.deg == 0 }

// flickerAdv wakes every node in round 1 and keeps hubs [0, hubs) on a
// fixed ring; every other node v holds the edge {v, v-hubs} for six
// rounds, then sits isolated for six, its phase shifted by v. Isolated
// six rounds is long enough for the sparse plane to drop a node (one
// detection round plus the OutputLag grace) before the edge returns.
func flickerAdv(n, hubs int) adversary.Adversary {
	return &adversary.Graphs{Next: func(v adversary.View) (*graph.Graph, []graph.NodeID) {
		r := v.Round()
		var wake []graph.NodeID
		if r == 1 {
			wake = adversary.AllNodes(n)
		}
		var edges []graph.EdgeKey
		for u := 0; u < hubs; u++ {
			edges = append(edges, graph.MakeEdgeKey(graph.NodeID(u), graph.NodeID((u+1)%hubs)))
		}
		for u := hubs; u < n; u++ {
			if (r+u)/6%2 == 0 {
				edges = append(edges, graph.MakeEdgeKey(graph.NodeID(u), graph.NodeID(u-hubs)))
			}
		}
		return graph.FromEdges(n, edges), wake
	}}
}

// TestDeliveryGateHearsRevivedNodes pins the phase-2 delivery gate: the
// sparse plane reads only active neighbors' outboxes, and a node revived
// by this round's topology diff counts as active in this round. Every
// node's per-round inbox must equal the reference walk's, at Workers
// {1, 4} (the hubs keep the active list above the serial threshold, so 4
// workers shard it), while the engine skips the dropped rounds.
func TestDeliveryGateHearsRevivedNodes(t *testing.T) {
	const n, hubs, rounds = 1024, 640, 40
	newAlgo := func() *beaconAlgo {
		a := &beaconAlgo{inbox: make([][]uint64, rounds+1), calls: make([]int, n)}
		for r := range a.inbox {
			a.inbox[r] = make([]uint64, n)
		}
		return a
	}
	cfg := Config{N: n, Seed: 3}
	ref := newAlgo()
	RunReference(cfg, flickerAdv(n, hubs), ref, rounds)
	for _, workers := range []int{1, 4} {
		got := newAlgo()
		cfg.Workers = workers
		New(cfg, flickerAdv(n, hubs), got).Run(rounds)
		for r := 1; r <= rounds; r++ {
			for v := 0; v < n; v++ {
				if got.inbox[r][v] != ref.inbox[r][v] {
					t.Fatalf("workers=%d round %d node %d: inbox hash %#x, reference walk %#x", workers, r, v, got.inbox[r][v], ref.inbox[r][v])
				}
			}
		}
		for v := hubs; v < n; v++ {
			if got.calls[v] >= ref.calls[v] {
				t.Fatalf("workers=%d node %d: processed %d rounds, reference %d — the isolated node was never dropped", workers, v, got.calls[v], ref.calls[v])
			}
		}
	}
}
