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

// save serializes the pipeline: slot count, then each live slot's
// channel, age and instance state, front = oldest. The not yet live
// instances of the newest block are fresh and carry no state.
func (p *pipeline) save(w *ckpt.Writer) {
	w.Int(len(p.meta))
	for i, m := range p.meta {
		w.Varint(int64(m.ch))
		w.Int(int(m.age))
		saveInstance(w, p.inst[i])
	}
}

// load restores a pipeline of at most size instances, building each
// instance via the factory (NewNode without Start — all instance state
// comes from the stream). The slices are carved from the reader's arena
// at that capacity, so the restored pipeline fills and recycles within
// them (push); it continues filling with a new block.
//
// A pipeline pushes one instance per round, so at a round barrier its n
// slots have ages n, n-1, …, 1 from the oldest, and start keys that
// rise by step (the keys of consecutive rounds). Any other shape is a
// corrupt record: its wire channels would not ascend.
func (p *pipeline) load(r *ckpt.Reader, size int, step int32, f nodeFactory, v graph.NodeID) {
	*p = pipeline{}
	n := r.Count(size)
	if r.Err() != nil {
		return
	}
	inst := ckpt.AllocSlice[NodeInstance](r, size)[:n]
	meta := ckpt.AllocSlice[slotMeta](r, size)[:n]
	for i := range meta {
		meta[i].ch = int32(r.Varint())
		meta[i].age = int32(r.Int())
		if r.Err() == nil && (meta[i].age != int32(n-i) || i > 0 && meta[i].ch != meta[i-1].ch+step) {
			r.Fail(fmt.Errorf("core: pipeline slot %d of %d has age %d and start key %d, not a slot of consecutive rounds", i, n, meta[i].age, meta[i].ch))
			return
		}
		inst[i] = restoredInstance(r, f, v)
		loadInstance(r, inst[i])
		if r.Err() != nil {
			return
		}
	}
	p.inst, p.meta = inst, meta
}

// SaveState implements ckpt.Stater for the Concat processor. A parked
// node is unparked first, by replaying its skipped rounds, so it writes
// the bytes of a run that never parked.
func (p *concatProc) SaveState(w *ckpt.Writer) {
	if p.parked != 0 {
		p.c.replayMu.Lock()
		p.c.replayBuf = p.unpark(p.c.replayBuf[:0])
		p.c.replayMu.Unlock()
	}
	w.Section(tagConcat)
	saveInstance(w, p.salg)
	p.dal.save(w)
}

// LoadState implements ckpt.Stater: it rebuilds the static-algorithm
// instance and the dynamic pipeline via their factories, then restores
// each instance's state. ictx is per-call scratch and needs no
// restoring; the restored node is not parked, as a saved one never is.
func (p *concatProc) LoadState(r *ckpt.Reader) {
	p.parked = 0
	r.Section(tagConcat)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.dal.load(r, p.c.T1-1, 1, p.c.D, p.v)
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
	p.mids.save(w)
	p.outs.save(w)
}

// LoadState implements ckpt.Stater.
func (p *chainProc) LoadState(r *ckpt.Reader) {
	r.Section(tagChain)
	p.salg = restoredInstance(r, p.c.S, p.v)
	loadInstance(r, p.salg)
	p.mids.load(r, p.c.Tm-1, 2, p.c.Mid, p.v)
	p.outs.load(r, p.c.T1-1, 2, p.c.D, p.v)
	// Both pipelines push in every round, the mid instance with key 2r
	// and the outer one with 2r+1.
	mids, outs := p.mids.meta, p.outs.meta
	if r.Err() == nil && len(mids) > 0 && len(outs) > 0 && outs[len(outs)-1].ch != mids[len(mids)-1].ch+1 {
		r.Fail(fmt.Errorf("core: newest outer start key %d does not follow newest mid start key %d", outs[len(outs)-1].ch, mids[len(mids)-1].ch))
	}
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
