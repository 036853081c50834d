package coloring

import (
	"testing"
	"unsafe"

	"dynlocal/internal/adversary"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// pathCounts counts the rounds after the start round that DColor
// instances processed, those that were steady, and those that took the
// steady fast path.
type pathCounts struct{ rounds, steady, fast int }

// countingDColor builds DColor instances that count their paths. It
// reads the path off the instance after Process: a round that walked the
// streak table leaves walked equal to age, and only the fast path leaves
// it behind.
type countingDColor struct {
	*DColorFactory
	c *pathCounts
}

func (f countingDColor) NewNode(v graph.NodeID) core.NodeInstance {
	return &countingDColorNode{f.DColorFactory.NewNode(v).(*dcolorNode), f.c}
}

func (f countingDColor) NewNodes(v graph.NodeID, k int, dst []core.NodeInstance) []core.NodeInstance {
	n := len(dst)
	dst = f.DColorFactory.NewNodes(v, k, dst)
	for i := n; i < len(dst); i++ {
		dst[i] = &countingDColorNode{dst[i].(*dcolorNode), f.c}
	}
	return dst
}

type countingDColorNode struct {
	*dcolorNode
	c *pathCounts
}

func (d *countingDColorNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	start := d.age == 0
	d.dcolorNode.Process(ctx, in, deg)
	if start {
		return
	}
	d.c.rounds++
	if ctx.Steady {
		d.c.steady++
	}
	if d.walked != d.age {
		d.c.fast++
	}
}

// TestSteadyEngages pins how often DColor takes its steady fast path in
// combined coloring at N = 4096 under 32+32 churn, over the 44 rounds of
// the churn-coloring benchmark session: in at least 75% of the instance
// rounds after their start round, so that the gain cannot switch off
// unnoticed. Of the rest, most are steady rounds in which a neighbor
// that joined after the instance started is sending, and about 3% have
// an edge in the round's diff.
func TestSteadyEngages(t *testing.T) {
	const n, rounds = 4096, 44
	var c pathCounts
	algo := core.NewConcat(countingDColor{&DColorFactory{N: n}, &c}, &SColorFactory{N: n}, n)
	base := graph.GNP(n, 8.0/n, prf.NewStream(1, 0, 0, prf.PurposeWorkload))
	eng := engine.New(engine.Config{N: n, Seed: 1, Workers: 1}, &adversary.Churn{Base: base, Add: 32, Del: 32, Seed: 2}, algo)
	eng.Run(rounds)
	frac := float64(c.fast) / float64(c.rounds)
	t.Logf("fast path in %d of %d DColor instance rounds (%.1f%%); %d steady rounds walked (%.1f%%)",
		c.fast, c.rounds, 100*frac, c.steady-c.fast, 100*float64(c.steady-c.fast)/float64(c.rounds))
	if frac < 0.75 {
		t.Fatalf("fast path in %.1f%% of DColor instance rounds, want at least 75%%", 100*frac)
	}
}

// TestDColorNodeSize pins the instance struct at 104 bytes: a DColor
// block holds T1-1 of them per node, and the steady path's walked age
// and count live in padding the struct already had.
func TestDColorNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(dcolorNode{}); got > 104 {
		t.Fatalf("dcolorNode is %d bytes, want at most 104", got)
	}
}
