package mis

import (
	"fmt"
	"math"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint support: the MIS node types serialize their full mutable
// state so a restored run continues bit-identically. LoadState runs on
// a freshly NewNode-ed instance (configuration fields like mask and the
// factory pointer are already set; Start has not been called).

const (
	tagDMis uint64 = 0x61
	tagSMis uint64 = 0x62
)

// SaveState implements ckpt.Stater. The streak table is written
// verbatim (key/value pairs in insertion order): order does
// not change behavior, but keeping it byte-stable makes checkpoint
// artifacts of identical runs comparable bit-for-bit.
func (d *dmisNode) SaveState(w *ckpt.Writer) {
	w.Section(tagDMis)
	w.Varint(int64(d.out))
	w.Bool(d.provD)
	w.Int(d.age)
	w.Uvarint(d.alpha)
	w.Bool(d.age > 0)
	if d.age > 0 {
		w.Int(len(d.streak))
		for _, e := range d.streak {
			w.Varint(int64(e.u))
			w.Varint(int64(e.last))
		}
	}
}

// LoadState implements ckpt.Stater.
func (d *dmisNode) LoadState(r *ckpt.Reader) {
	r.Section(tagDMis)
	d.out = readValue(r)
	d.provD = r.Bool()
	d.age = r.Int()
	d.alpha = r.Uvarint()
	d.streak = d.streak[:0]
	if r.Bool() {
		// A node does not know the universe size, so only the record's
		// length bounds its streak table.
		n := r.Count(math.MaxInt)
		d.streak = ckpt.AllocSlice[streakEntry](r, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			d.streak[i] = streakEntry{graph.NodeID(r.Varint()), int32(r.Varint())}
		}
	}
}

// SaveState implements ckpt.Stater.
func (s *smisNode) SaveState(w *ckpt.Writer) {
	w.Section(tagSMis)
	w.Varint(int64(s.out))
	w.Float64(s.p)
	w.Bool(s.candidate)
}

// LoadState implements ckpt.Stater.
func (s *smisNode) LoadState(r *ckpt.Reader) {
	r.Section(tagSMis)
	s.out = readValue(r)
	s.p = r.Float64()
	s.candidate = r.Bool()
}

// NewNodeArena implements core.ArenaFactory: restored instance structs
// come from the arena instead of the heap. The result matches NewNode's
// initial state exactly; LoadState fills the rest.
func (f *DMisFactory) NewNodeArena(v graph.NodeID, r *ckpt.Reader) core.NodeInstance {
	d := ckpt.AllocStruct[dmisNode](r)
	d.v, d.mask = v, f.alphaMask()
	return d
}

// NewNodeArena implements core.ArenaFactory.
func (f *SMisFactory) NewNodeArena(v graph.NodeID, r *ckpt.Reader) core.NodeInstance {
	s := ckpt.AllocStruct[smisNode](r)
	s.f, s.v, s.p = f, v, 0.5
	return s
}

var (
	_ ckpt.Stater       = (*dmisNode)(nil)
	_ ckpt.Stater       = (*smisNode)(nil)
	_ core.ArenaFactory = (*DMisFactory)(nil)
	_ core.ArenaFactory = (*SMisFactory)(nil)
)

// readValue reads a problems.Value with a sanity bound: MIS values are
// Bot, InMIS or Dominated, anything else marks a corrupt stream that
// slipped past the section tags.
func readValue(r *ckpt.Reader) problems.Value {
	raw := problems.Value(r.Varint())
	switch raw {
	case problems.Bot, problems.InMIS, problems.Dominated:
		return raw
	default:
		r.Fail(fmt.Errorf("mis: invalid checkpointed value %d", raw))
		return problems.Bot
	}
}
