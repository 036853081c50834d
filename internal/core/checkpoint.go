package core

import (
	"fmt"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// Checkpoint support for the framework node processors. A processor
// serializes recursively: the combiner wrappers write their pipeline
// shape (channel ids and ages) and delegate each instance's fields to
// the instance itself, which must implement ckpt.Stater. LoadState runs
// on a freshly NewNode-ed processor whose Start has NOT been called —
// every field normally initialized by Start or by the first processed
// round is restored from the stream instead.

// Section tags guarding the framework layers of a checkpoint stream.
const (
	tagSingle uint64 = 0x51
	tagConcat uint64 = 0x52
	tagChain  uint64 = 0x53
)

// saveInstance serializes one NodeInstance, failing the stream if the
// instance does not support checkpointing.
func saveInstance(w *ckpt.Writer, inst NodeInstance) {
	st, ok := inst.(ckpt.Stater)
	if !ok {
		w.Fail(fmt.Errorf("core: %T does not support checkpointing", inst))
		return
	}
	st.SaveState(w)
}

// loadInstance restores one NodeInstance in place.
func loadInstance(r *ckpt.Reader, inst NodeInstance) {
	st, ok := inst.(ckpt.Stater)
	if !ok {
		r.Fail(fmt.Errorf("core: %T does not support checkpointing", inst))
		return
	}
	st.LoadState(r)
}

// ArenaFactory is optionally implemented by algorithm factories
// (DynamicAlgorithm or NetworkStaticAlgorithm) whose instance structs
// can be carved from the restore arena attached to the checkpoint
// reader. The returned instance must be in the exact state NewNode
// leaves it in — LoadState runs right after either way.
type ArenaFactory interface {
	NewNodeArena(v graph.NodeID, r *ckpt.Reader) NodeInstance
}

// nodeFactory is the NewNode slice both algorithm-factory interfaces
// share, so restore paths can construct instances uniformly.
type nodeFactory interface {
	NewNode(v graph.NodeID) NodeInstance
}

// restoredInstance builds an instance for a restore, through the arena
// when the factory supports it.
func restoredInstance(r *ckpt.Reader, f nodeFactory, v graph.NodeID) NodeInstance {
	if af, ok := f.(ArenaFactory); ok {
		return af.NewNodeArena(v, r)
	}
	return f.NewNode(v)
}

// SaveState implements ckpt.Stater by delegating to the wrapped
// instance.
func (p singleProc) SaveState(w *ckpt.Writer) {
	w.Section(tagSingle)
	saveInstance(w, p.inst)
}

// LoadState implements ckpt.Stater.
func (p singleProc) LoadState(r *ckpt.Reader) {
	r.Section(tagSingle)
	loadInstance(r, p.inst)
}

// saveSlots serializes one instance pipeline: slot count, then each
// slot's channel, age and instance state in ring order (front = oldest).
func saveSlots(w *ckpt.Writer, slots []dSlot) {
	w.Int(len(slots))
	for i := range slots {
		s := &slots[i]
		w.Varint(int64(s.ch))
		w.Int(s.age)
		saveInstance(w, s.inst)
	}
}

// loadSlots restores an instance pipeline of at most maxSlots instances,
// building each instance via the factory (NewNode without Start — all
// instance state comes from the stream). The slot slice is carved from
// the reader's arena at that capacity, so the restored pipeline fills
// and recycles within it (push).
func loadSlots(r *ckpt.Reader, maxSlots int, f nodeFactory, v graph.NodeID) []dSlot {
	n := r.Count(maxSlots)
	if r.Err() != nil {
		return nil
	}
	slots := ckpt.AllocSlice[dSlot](r, maxSlots)[:n]
	for i := 0; i < n; i++ {
		s := &slots[i]
		s.ch = int32(r.Varint())
		s.age = r.Int()
		s.inst = restoredInstance(r, f, v)
		loadInstance(r, s.inst)
		if r.Err() != nil {
			return nil
		}
	}
	return slots
}

// SaveState implements ckpt.Stater for the Concat processor.
func (p *concatProc) SaveState(w *ckpt.Writer) {
	w.Section(tagConcat)
	saveInstance(w, p.salg)
	saveSlots(w, p.dal)
}

// LoadState implements ckpt.Stater: it rebuilds the static-algorithm
// instance and the dynamic pipeline via their factories, then restores
// each instance's state. ictx is per-call scratch and needs no
// restoring.
func (p *concatProc) LoadState(r *ckpt.Reader) {
	r.Section(tagConcat)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.dal = loadSlots(r, p.c.T1-1, p.c.D, p.v)
}

// NewNodeArena implements engine.ArenaAlgorithm: on restore the
// processor struct itself comes from the arena.
func (c *Concat) NewNodeArena(v graph.NodeID, r *ckpt.Reader) engine.NodeProc {
	p := ckpt.AllocStruct[concatProc](r)
	p.c, p.v = c, v
	return p
}

// SaveState implements ckpt.Stater for the Chain processor.
func (p *chainProc) SaveState(w *ckpt.Writer) {
	w.Section(tagChain)
	saveInstance(w, p.salg)
	saveSlots(w, p.mids)
	saveSlots(w, p.outs)
}

// LoadState implements ckpt.Stater.
func (p *chainProc) LoadState(r *ckpt.Reader) {
	r.Section(tagChain)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.mids = loadSlots(r, p.c.Tm-1, p.c.Mid, p.v)
	p.outs = loadSlots(r, p.c.T1-1, p.c.D, p.v)
}

// NewNodeArena implements engine.ArenaAlgorithm.
func (c *Chain) NewNodeArena(v graph.NodeID, r *ckpt.Reader) engine.NodeProc {
	p := ckpt.AllocStruct[chainProc](r)
	p.c, p.v = c, v
	return p
}

// Interface conformance: the engine checkpoints node processors through
// ckpt.Stater.
var (
	_ ckpt.Stater = singleProc{}
	_ ckpt.Stater = (*concatProc)(nil)
	_ ckpt.Stater = (*chainProc)(nil)
)
