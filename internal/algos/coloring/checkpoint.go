package coloring

import (
	"fmt"
	"math"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint support: the coloring node types serialize their full
// mutable state so a restored run continues bit-identically. LoadState
// runs on a freshly NewNode-ed instance (factory pointer and node id
// already set; Start has not been called).

const (
	tagDColor uint64 = 0x63
	tagSColor uint64 = 0x64
)

func savePalette(w *ckpt.Writer, p *palette) {
	w.Int(p.size)
	w.Int(len(p.words))
	for _, word := range p.words {
		w.Uvarint(word)
	}
}

// loadPalette restores p in place; up to 64 colors land in its inline
// word.
func loadPalette(r *ckpt.Reader, p *palette) {
	p.size = r.Int()
	// A node does not know the universe size, so only the record's
	// length bounds its palette and, in DColor, its streak table.
	n := r.Count(math.MaxInt)
	if r.Err() != nil {
		p.words, p.size = nil, 0
		return
	}
	if n <= len(p.first) {
		p.words = p.first[:n]
	} else {
		p.words = ckpt.AllocSlice[uint64](r, n)
	}
	for i := range p.words {
		p.words[i] = r.Uvarint()
	}
}

// SaveState implements ckpt.Stater. The streak table is written as
// key-sorted pairs once the start round has run.
func (d *dcolorNode) SaveState(w *ckpt.Writer) {
	w.Section(tagDColor)
	w.Varint(int64(d.out))
	w.Bool(d.started)
	w.Varint(int64(d.age))
	w.Varint(d.tentative)
	savePalette(w, &d.pal)
	w.Bool(d.started)
	if d.started {
		w.Int(len(d.streak))
		for _, e := range d.streak {
			w.Varint(int64(e.u))
			w.Varint(int64(e.last))
		}
	}
}

// LoadState implements ckpt.Stater.
func (d *dcolorNode) LoadState(r *ckpt.Reader) {
	r.Section(tagDColor)
	d.out = problemsValue(r)
	d.started = r.Bool()
	d.age = int32(r.Varint())
	d.tentative = r.Varint()
	loadPalette(r, &d.pal)
	d.streak = d.streak[:0]
	if r.Bool() {
		n := r.Count(math.MaxInt)
		d.streak = ckpt.AllocSlice[streakEntry](r, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			d.streak[i] = streakEntry{graph.NodeID(r.Varint()), int32(r.Varint())}
		}
	}
}

// SaveState implements ckpt.Stater.
func (s *scolorNode) SaveState(w *ckpt.Writer) {
	w.Section(tagSColor)
	w.Varint(int64(s.out))
	w.Varint(s.tentative)
	savePalette(w, &s.pal)
}

// LoadState implements ckpt.Stater.
func (s *scolorNode) LoadState(r *ckpt.Reader) {
	r.Section(tagSColor)
	s.out = problemsValue(r)
	s.tentative = r.Varint()
	loadPalette(r, &s.pal)
}

// NewNodeArena implements core.ArenaFactory: restored instance structs
// come from the arena instead of the heap. The result matches NewNode's
// initial state exactly; LoadState fills the rest.
func (f *DColorFactory) NewNodeArena(v graph.NodeID, r *ckpt.Reader) core.NodeInstance {
	d := ckpt.AllocStruct[dcolorNode](r)
	d.f, d.v = f, v
	return d
}

// NewNodeArena implements core.ArenaFactory.
func (f *SColorFactory) NewNodeArena(v graph.NodeID, r *ckpt.Reader) core.NodeInstance {
	s := ckpt.AllocStruct[scolorNode](r)
	s.v = v
	return s
}

var (
	_ ckpt.Stater       = (*dcolorNode)(nil)
	_ ckpt.Stater       = (*scolorNode)(nil)
	_ core.ArenaFactory = (*DColorFactory)(nil)
	_ core.ArenaFactory = (*SColorFactory)(nil)
)

// problemsValue reads a coloring output: Bot or a positive color.
func problemsValue(r *ckpt.Reader) problems.Value {
	raw := problems.Value(r.Varint())
	if raw < 0 {
		r.Fail(fmt.Errorf("coloring: invalid checkpointed value %d", raw))
		return problems.Bot
	}
	return raw
}
