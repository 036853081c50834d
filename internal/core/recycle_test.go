package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
)

// The combiners recycle evicted pipeline instances by Starting them
// again, so Start must fully reinitialize: an instance re-Started after k
// rounds has to be indistinguishable from a fresh NewNode given the same
// Start. These tests run a small network of one algorithm's instances
// over a changing topology, re-Start node 0 mid-run next to a fresh twin,
// and require identical checkpoint bytes and identical behavior from then
// on.

const recycleN = 24

// recycleNeighbors is node v's neighborhood in round r: a fixed random
// graph with a round-dependent subset of edges dropped, so streaks break
// and palettes see varying degrees. Rows are ascending, as the engine
// delivers them.
func recycleNeighbors(base *graph.Graph, v graph.NodeID, r int) []graph.NodeID {
	var out []graph.NodeID
	for _, u := range base.Neighbors(v) {
		if (int(u)+int(v)+r)%5 != 0 {
			out = append(out, u)
		}
	}
	return out
}

func stateBytes(t *testing.T, inst core.NodeInstance) []byte {
	t.Helper()
	w := ckpt.NewWriter(nil)
	inst.(ckpt.Stater).SaveState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

func TestRestartEqualsFreshInstance(t *testing.T) {
	dcolor := &coloring.DColorFactory{N: recycleN}
	scolor := &coloring.SColorFactory{N: recycleN}
	dmis := &mis.DMisFactory{N: recycleN}
	smis := &mis.SMisFactory{N: recycleN}
	cases := []struct {
		name    string
		newNode func(graph.NodeID) core.NodeInstance
		input   problems.Value // node 0's input at the re-Start
	}{
		{"dcolor", dcolor.NewNode, problems.Bot},
		{"dcolor-colored-input", dcolor.NewNode, 1},
		{"scolor", scolor.NewNode, problems.Bot},
		{"dmis", dmis.NewNode, problems.Bot},
		{"dmis-dominated-input", dmis.NewNode, problems.Dominated},
		{"smis", smis.NewNode, problems.Bot},
	}
	base := graph.GNP(recycleN, 0.3, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	for _, tc := range cases {
		for _, k := range []int{1, 7} {
			t.Run(fmt.Sprintf("%s/k=%d", tc.name, k), func(t *testing.T) {
				nodes := make([]core.NodeInstance, recycleN)
				outs := make([][]engine.SubMsg, recycleN)
				ctx := func(v graph.NodeID, r int) *engine.Ctx {
					return &engine.Ctx{Node: v, Round: r, Seed: 11}
				}
				for v := range nodes {
					nodes[v] = tc.newNode(graph.NodeID(v))
					nodes[v].Start(ctx(graph.NodeID(v), 1), problems.Bot)
				}
				var fresh core.NodeInstance
				var freshOut []engine.SubMsg
				for r := 1; r <= 2*k; r++ {
					if r == k+1 {
						nodes[0].Start(ctx(0, r), tc.input)
						fresh = tc.newNode(0)
						fresh.Start(ctx(0, r), tc.input)
						if got, want := stateBytes(t, nodes[0]), stateBytes(t, fresh); !bytes.Equal(got, want) {
							t.Fatalf("re-Started state %x, fresh %x", got, want)
						}
					}
					for v := range nodes {
						outs[v] = nodes[v].Broadcast(ctx(graph.NodeID(v), r), outs[v][:0])
					}
					if fresh != nil {
						freshOut = fresh.Broadcast(ctx(0, r), freshOut[:0])
						if !slices.Equal(outs[0], freshOut) {
							t.Fatalf("round %d: re-Started broadcast %v, fresh %v", r, outs[0], freshOut)
						}
					}
					for v := range nodes {
						nbrs := recycleNeighbors(base, graph.NodeID(v), r)
						var in []engine.Incoming
						for _, u := range nbrs {
							for _, m := range outs[u] {
								in = append(in, engine.Incoming{From: u, M: m})
							}
						}
						nodes[v].Process(ctx(graph.NodeID(v), r), in, len(nbrs))
						if v == 0 && fresh != nil {
							fresh.Process(ctx(0, r), in, len(nbrs))
						}
					}
					if fresh == nil {
						continue
					}
					if got, want := nodes[0].Output(), fresh.Output(); got != want {
						t.Fatalf("round %d: re-Started output %d, fresh %d", r, got, want)
					}
					if got, want := stateBytes(t, nodes[0]), stateBytes(t, fresh); !bytes.Equal(got, want) {
						t.Fatalf("round %d: re-Started state %x, fresh %x", r, got, want)
					}
				}
			})
		}
	}
}

// TestBlockInstancesEqualNewNode: the combiners fill their pipelines
// from NewNodes blocks, so every instance of a block must be
// indistinguishable from a NewNode instance. Node 0 of a small network
// runs a NewNode instance; each instance of a block NewNodes built for
// it is Started with the same input and context and fed node 0's inbox,
// and must match it in checkpoint bytes after Start and in broadcasts,
// outputs and checkpoint bytes in each of T rounds. In the wide-start
// case node 0's start-round inbox has more senders than the 12 streak
// entries DColor's NewNodes carves per instance, so the block instances'
// streak tables regrow on the heap.
func TestBlockInstancesEqualNewNode(t *testing.T) {
	const block = 8
	dcolor := &coloring.DColorFactory{N: recycleN}
	dmis := &mis.DMisFactory{N: recycleN}
	sparse := graph.GNP(recycleN, 0.3, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	dense := graph.GNP(recycleN, 0.9, prf.NewStream(3, 0, 0, prf.PurposeWorkload))
	cases := []struct {
		name  string
		f     core.DynamicAlgorithm
		input problems.Value // node 0's input
		base  *graph.Graph
	}{
		{"dcolor", dcolor, problems.Bot, sparse},
		{"dcolor-colored-input", dcolor, 1, sparse},
		{"dcolor-wide-start", dcolor, problems.Bot, dense},
		{"dmis", dmis, problems.Bot, sparse},
		{"dmis-dominated-input", dmis, problems.Dominated, sparse},
	}
	if n := len(recycleNeighbors(dense, 0, 1)); n <= 12 {
		t.Fatalf("wide-start inbox has %d senders, want more than 12", n)
	}
	for _, tc := range cases {
		base := tc.base
		t.Run(tc.name, func(t *testing.T) {
			ctx := func(v graph.NodeID, r int) *engine.Ctx {
				return &engine.Ctx{Node: v, Round: r, Seed: 11}
			}
			// NewNodes appends to dst, keeping what dst holds.
			prefix := tc.f.NewNode(0)
			blk := tc.f.NewNodes(0, block, []core.NodeInstance{prefix})
			if len(blk) != block+1 || blk[0] != prefix {
				t.Fatalf("NewNodes returned %d instances, want the prefix and %d more", len(blk), block)
			}
			blk = blk[1:]
			nodes := make([]core.NodeInstance, recycleN)
			outs := make([][]engine.SubMsg, recycleN)
			for v := range nodes {
				in := problems.Bot
				if v == 0 {
					in = tc.input
				}
				nodes[v] = tc.f.NewNode(graph.NodeID(v))
				nodes[v].Start(ctx(graph.NodeID(v), 1), in)
			}
			for i, b := range blk {
				b.Start(ctx(0, 1), tc.input)
				if got, want := stateBytes(t, b), stateBytes(t, nodes[0]); !bytes.Equal(got, want) {
					t.Fatalf("block instance %d started as %x, NewNode instance %x", i, got, want)
				}
			}
			var blkOut []engine.SubMsg
			for r := 1; r <= tc.f.WindowSize(recycleN); r++ {
				for v := range nodes {
					outs[v] = nodes[v].Broadcast(ctx(graph.NodeID(v), r), outs[v][:0])
				}
				for i, b := range blk {
					blkOut = b.Broadcast(ctx(0, r), blkOut[:0])
					if !slices.Equal(blkOut, outs[0]) {
						t.Fatalf("round %d: block instance %d broadcast %v, NewNode instance %v", r, i, blkOut, outs[0])
					}
				}
				for v := range nodes {
					nbrs := recycleNeighbors(base, graph.NodeID(v), r)
					var in []engine.Incoming
					for _, u := range nbrs {
						for _, m := range outs[u] {
							in = append(in, engine.Incoming{From: u, M: m})
						}
					}
					nodes[v].Process(ctx(graph.NodeID(v), r), in, len(nbrs))
					if v != 0 {
						continue
					}
					for i, b := range blk {
						b.Process(ctx(0, r), in, len(nbrs))
						if got, want := b.Output(), nodes[0].Output(); got != want {
							t.Fatalf("round %d: block instance %d output %d, NewNode instance %d", r, i, got, want)
						}
						if got, want := stateBytes(t, b), stateBytes(t, nodes[0]); !bytes.Equal(got, want) {
							t.Fatalf("round %d: block instance %d state %x, NewNode instance %x", r, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestCombinersGuardPurposeSlots: live dynamic instances draw their
// randomness from channel-indexed PRF purpose slots, so a window whose
// live channels do not fit the slots must be refused at construction.
func TestCombinersGuardPurposeSlots(t *testing.T) {
	s := &coloring.SColorFactory{N: 64}
	dyn := func(window int) core.DynamicAlgorithm { return &coloring.DColorFactory{N: 64, Window: window} }
	cases := []struct {
		name   string
		build  func()
		panics bool
	}{
		{"concat T1=4096", func() { core.NewConcat(dyn(4096), s, 64) }, false},
		{"concat T1=4097", func() { core.NewConcat(dyn(4097), s, 64) }, true},
		{"concat T1=5000", func() { core.NewConcat(dyn(5000), s, 64) }, true},
		{"chain T1=2049 Tm=8", func() { core.NewChain(dyn(2049), dyn(8), s, 64) }, false},
		{"chain T1=2050 Tm=8", func() { core.NewChain(dyn(2050), dyn(8), s, 64) }, true},
		{"chain T1=8 Tm=2048", func() { core.NewChain(dyn(8), dyn(2048), s, 64) }, false},
		{"chain T1=8 Tm=2049", func() { core.NewChain(dyn(8), dyn(2049), s, 64) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := recover()
				if (msg != nil) != tc.panics {
					t.Fatalf("panic = %v, want panic %v", msg, tc.panics)
				}
				if msg != nil && !strings.Contains(fmt.Sprint(msg), "4095") {
					t.Fatalf("panic %q does not name the 4095-slot bound", msg)
				}
			}()
			tc.build()
		})
	}
}
