package verify

import (
	"fmt"
	"slices"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint support: a TDynamic checker writes one record kind — its
// window record, the aggregate tallies and the output-snapshot entries
// that differ from the parent (the last noted record for a delta, the
// all-Bot fresh checker for a base). The violation trackers are never
// serialized: their state is a pure function of (outputs, core nodes,
// window graphs), all of which the records carry, so FinishChain
// rebuilds them once after the last record of a chain by replaying
// Activate/OutputChanged/EdgeAdded against the restored window. That
// keeps the wire format free of tracker internals (flag arrays, conflict
// maps) and immune to their refactoring.

// tagTDynamic guards the checker section of a checkpoint record.
const tagTDynamic uint64 = 0x91

// NoteCheckpoint records that a chain record capturing the checker's
// current state was durably persisted, resetting the dirty tracking so
// the next SaveDelta diffs against exactly that record. The first call
// enables tracking. Like the engine's NoteCheckpoint, it must be called
// for every persisted record — on both the write and the restore side —
// and never for a record whose write failed.
func (c *TDynamic) NoteCheckpoint() {
	c.window.NoteCheckpoint()
	if !c.track {
		c.track = true
		c.outDirty = make([]bool, len(c.prevOut))
		return
	}
	for _, v := range c.outDirtyList {
		c.outDirty[v] = false
	}
	c.outDirtyList = c.outDirtyList[:0]
}

// SaveDelta writes the checker's record: the window record, the
// aggregate tallies (absolute — a handful of scalars) and the output
// snapshot entries that differ from the parent — every non-Bot entry for
// a base, the entries that moved since the last noted record for a
// delta — as ascending node gaps with their values.
func (c *TDynamic) SaveDelta(w *ckpt.Writer, base bool) {
	w.Section(tagTDynamic)
	c.window.SaveDelta(w, base)
	w.Int(c.rounds)
	w.Int(c.invalidRounds)
	w.Int(c.totalPacking)
	w.Int(c.totalCover)
	w.Int(c.totalBotCore)
	w.Int(c.coreCount)
	w.Int(c.botCore)
	var prev graph.NodeID
	writeOut := func(v graph.NodeID) {
		w.Uvarint(uint64(v - prev))
		w.Varint(int64(c.prevOut[v]))
		prev = v
	}
	if base {
		nOut := 0
		for _, val := range c.prevOut {
			if val != problems.Bot {
				nOut++
			}
		}
		w.Int(nOut)
		for v, val := range c.prevOut {
			if val != problems.Bot {
				writeOut(graph.NodeID(v))
			}
		}
		return
	}
	slices.Sort(c.outDirtyList)
	w.Int(len(c.outDirtyList))
	for _, v := range c.outDirtyList {
		writeOut(v)
	}
}

// LoadDelta applies one record to the checker: a base onto a freshly
// constructed NewTDynamic checker with the same problem pair, window size
// and universe, a delta onto the state of its parent record. Records
// never touch the violation trackers — call FinishChain once after the
// final record.
func (c *TDynamic) LoadDelta(r *ckpt.Reader, base bool) {
	r.Section(tagTDynamic)
	if base && c.rounds != 0 {
		r.Fail(fmt.Errorf("verify: a base record restores only into a fresh checker, this one has checked %d rounds", c.rounds))
		return
	}
	c.window.LoadDelta(r, base)
	rounds := r.Int()
	invalidRounds := r.Int()
	totalPacking := r.Int()
	totalCover := r.Int()
	totalBotCore := r.Int()
	coreCount := r.Int()
	botCore := r.Int()
	if r.Err() != nil {
		return
	}
	if rounds != c.window.Round() {
		r.Fail(fmt.Errorf("verify: record has %d checked rounds but window round %d", rounds, c.window.Round()))
		return
	}
	c.rounds = rounds
	c.invalidRounds = invalidRounds
	c.totalPacking = totalPacking
	c.totalCover = totalCover
	c.totalBotCore = totalBotCore
	c.coreCount = coreCount
	c.botCore = botCore
	n := uint64(len(c.prevOut))
	nOut := r.Count(len(c.prevOut))
	if r.Err() != nil {
		return
	}
	var v uint64
	for i := 0; i < nOut; i++ {
		d := r.Uvarint()
		val := problems.Value(r.Varint())
		if r.Err() != nil {
			return
		}
		if (i > 0 && d == 0) || d >= n || v+d >= n {
			r.Fail(fmt.Errorf("verify: record output entry %d out of order or range", i))
			return
		}
		v += d
		c.prevOut[v] = val
	}
}

// FinishChain completes a chain restore: records update the window and
// output snapshot but not the violation trackers (their state is a pure
// function of the restored data), so after the final record the trackers
// are recreated and rebuilt from scratch. Call it exactly once, after
// the last record has been applied; the restored checker then both
// verifies further rounds and keeps appending deltas to the same chain.
func (c *TDynamic) FinishChain() error {
	n := c.window.N()
	c.pt = c.pc.P.NewTracker(n)
	c.ct = c.pc.C.NewTracker(n)
	for i, val := range c.prevOut {
		if val != problems.Bot {
			c.pt.OutputChanged(graph.NodeID(i), val)
			c.ct.OutputChanged(graph.NodeID(i), val)
		}
	}
	// One ascending walk of the spans feeds both trackers: the packing
	// tracker the edges of G^∩T, the covering tracker those of G^∪T.
	c.window.WalkUnion(func(k graph.EdgeKey, inInter bool) {
		u, v := k.Nodes()
		if inInter {
			c.pt.EdgeAdded(u, v)
		}
		c.ct.EdgeAdded(u, v)
	})
	core := c.window.CoreNodes()
	for _, v := range core {
		c.pt.Activate(v)
		c.ct.Activate(v)
	}
	if len(core) != c.coreCount {
		return fmt.Errorf("verify: checkpoint core count %d, window has %d", c.coreCount, len(core))
	}
	return nil
}

// CheckTopology implements engine.ChainPart: the checker's window must
// hold the restored engine's round graph and awake set.
func (c *TDynamic) CheckTopology(m int, hasEdge func(graph.EdgeKey) bool, awake func(graph.NodeID) bool) error {
	return c.window.CheckTopology(m, hasEdge, awake)
}

var _ engine.ChainPart = (*TDynamic)(nil)
