package verify

import (
	"fmt"
	"sort"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint support: a TDynamic checker serializes its window, output
// snapshot and aggregate tallies; the violation trackers are NOT
// serialized — their state is a pure function of (outputs, core nodes,
// window graphs), all of which the checkpoint already carries, so
// LoadState rebuilds them by replaying Activate/OutputChanged/EdgeAdded
// against the restored window. That keeps the wire format free of
// tracker internals (flag arrays, conflict maps) and immune to their
// refactoring.

// tagTDynamic guards the checker section of a checkpoint stream;
// tagTDynamicDelta guards the incremental variant used by chain records.
const (
	tagTDynamic      uint64 = 0x91
	tagTDynamicDelta uint64 = 0x92
)

// SaveState implements ckpt.Stater.
func (c *TDynamic) SaveState(w *ckpt.Writer) {
	w.Section(tagTDynamic)
	w.Bool(false)
	c.window.SaveState(w)
	w.Int(c.rounds)
	w.Int(c.invalidRounds)
	w.Int(c.totalPacking)
	w.Int(c.totalCover)
	w.Int(c.totalBotCore)
	w.Int(c.coreCount)
	w.Int(c.botCore)
	for _, val := range c.prevOut {
		w.Varint(int64(val))
	}
}

// LoadState implements ckpt.Stater. It must run on a freshly constructed
// NewTDynamic checker with the same problem pair, window size and
// universe.
func (c *TDynamic) LoadState(r *ckpt.Reader) {
	r.Section(tagTDynamic)
	if c.rounds != 0 || c.window.Round() != 0 {
		r.Fail(fmt.Errorf("verify: LoadState requires a fresh checker, this one has observed %d rounds", c.window.Round()))
		return
	}
	if !readOracleFlag(r) {
		return
	}
	c.window.LoadState(r)
	c.rounds = r.Int()
	c.invalidRounds = r.Int()
	c.totalPacking = r.Int()
	c.totalCover = r.Int()
	c.totalBotCore = r.Int()
	if r.Err() != nil {
		return
	}
	if c.rounds != c.window.Round() {
		r.Fail(fmt.Errorf("verify: checkpoint has %d checked rounds but window round %d", c.rounds, c.window.Round()))
		return
	}
	c.coreCount = r.Int()
	c.botCore = r.Int()
	for i := range c.prevOut {
		c.prevOut[i] = problems.Value(r.Varint())
	}
	if r.Err() != nil {
		return
	}
	if err := c.rebuildTrackers(); err != nil {
		r.Fail(err)
	}
}

// rebuildTrackers replays the restored window and output snapshot into
// fresh violation trackers: outputs first (vals), then the window
// graphs' edges, then core activation — each tracker maintains its
// invariant under any incremental order, so the result equals the
// uninterrupted state. The trackers must be empty when this runs.
func (c *TDynamic) rebuildTrackers() error {
	for i, val := range c.prevOut {
		if val != problems.Bot {
			c.pt.OutputChanged(graph.NodeID(i), val)
			c.ct.OutputChanged(graph.NodeID(i), val)
		}
	}
	for _, k := range c.window.IntersectionGraph().EdgeKeys() {
		u, v := k.Nodes()
		c.pt.EdgeAdded(u, v)
	}
	for _, k := range c.window.UnionGraph().EdgeKeys() {
		u, v := k.Nodes()
		c.ct.EdgeAdded(u, v)
	}
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

// SaveDelta writes the checker's state difference against the last
// record passed to NoteCheckpoint: the window delta, the aggregate
// tallies (absolute — a handful of scalars), and only the output-snapshot
// entries that moved. Violation-tracker state is never serialized, full
// or delta — FinishChain rebuilds it after the last record.
func (c *TDynamic) SaveDelta(w *ckpt.Writer) {
	w.Section(tagTDynamicDelta)
	if !c.track {
		w.Fail(fmt.Errorf("verify: SaveDelta without a noted base checkpoint"))
		return
	}
	w.Bool(false)
	c.window.SaveDelta(w)
	w.Int(c.rounds)
	w.Int(c.invalidRounds)
	w.Int(c.totalPacking)
	w.Int(c.totalCover)
	w.Int(c.totalBotCore)
	w.Int(c.coreCount)
	w.Int(c.botCore)
	sort.Slice(c.outDirtyList, func(i, j int) bool { return c.outDirtyList[i] < c.outDirtyList[j] })
	w.Int(len(c.outDirtyList))
	for _, v := range c.outDirtyList {
		w.Varint(int64(v))
		w.Varint(int64(c.prevOut[v]))
	}
}

// LoadDelta applies one delta record to a checker positioned at the
// record's parent state (base LoadState + NoteCheckpoint, then every
// earlier delta). The violation trackers are NOT maintained during chain
// application — call FinishChain once after the final record.
func (c *TDynamic) LoadDelta(r *ckpt.Reader) {
	r.Section(tagTDynamicDelta)
	if !c.track {
		r.Fail(fmt.Errorf("verify: LoadDelta without a restored base checkpoint"))
		return
	}
	if !readOracleFlag(r) {
		return
	}
	c.window.LoadDelta(r)
	rounds := r.Int()
	invalidRounds := r.Int()
	totalPacking := r.Int()
	totalCover := r.Int()
	totalBotCore := r.Int()
	if r.Err() != nil {
		return
	}
	if rounds != c.window.Round() {
		r.Fail(fmt.Errorf("verify: delta has %d checked rounds but window round %d", rounds, c.window.Round()))
		return
	}
	c.rounds = rounds
	c.invalidRounds = invalidRounds
	c.totalPacking = totalPacking
	c.totalCover = totalCover
	c.totalBotCore = totalBotCore
	c.coreCount = r.Int()
	c.botCore = r.Int()
	n := r.Count(len(c.prevOut))
	if r.Err() != nil {
		return
	}
	last := int64(-1)
	for i := 0; i < n; i++ {
		v := r.Varint()
		val := problems.Value(r.Varint())
		if r.Err() != nil {
			return
		}
		if v <= last || v >= int64(len(c.prevOut)) {
			r.Fail(fmt.Errorf("verify: delta output entry %d out of order or range", v))
			return
		}
		last = v
		c.prevOut[v] = val
	}
}

// FinishChain completes a chain restore: deltas update the window and
// output snapshot but not the violation trackers (their state is a pure
// function of the restored data), so after the final record the trackers
// are recreated and rebuilt from scratch. Call it exactly once, after
// the last record has been applied; the restored checker then both
// verifies further rounds and keeps appending deltas to the same chain.
func (c *TDynamic) FinishChain() error {
	n := c.window.N()
	c.pt = c.pc.P.NewTracker(n)
	c.ct = c.pc.C.NewTracker(n)
	return c.rebuildTrackers()
}

// readOracleFlag reads the oracle flag both checker records open with and
// reports whether reading may go on. Writers always write false; true
// marked records of the retired materializing checker, which carried no
// output snapshot, and fails the reader like a torn stream does.
func readOracleFlag(r *ckpt.Reader) bool {
	oracle := r.Bool()
	if r.Err() != nil {
		return false
	}
	if oracle {
		r.Fail(fmt.Errorf("verify: checkpoint of the retired oracle checker"))
		return false
	}
	return true
}

var _ ckpt.Stater = (*TDynamic)(nil)
