// Package coloring implements the paper's coloring algorithms:
//
//   - DColor (Algorithm 2): the O(log n)-dynamic algorithm — the basic
//     randomized coloring run on the always-shrinking intersection graph,
//     never un-coloring a node (input-extending, finalizing).
//   - SColor (Algorithm 3): the (O(log n), 2)-network-static algorithm —
//     the basic randomized coloring run on the current graph, with
//     self-healing un-coloring whenever a node's color clashes with a
//     neighbor or exceeds its current degree+1 range.
//   - Basic (Algorithm 6): the pipelined single-round-type variant of the
//     classic randomized (degree+1)-coloring for static graphs, used to
//     reproduce Lemmas 6.1/6.2.
//
// NewColoring composes DColor and SColor through the framework combiner,
// yielding the algorithm of Corollary 1.2.
package coloring

import (
	"math/bits"

	"dynlocal/internal/prf"
)

// prfTentative is the purpose tag under which the coloring algorithms
// draw tentative colors.
const prfTentative = prf.PurposeTentativeColor

// palette is a bitset over colors {1, …, k} supporting removal, membership
// tests and uniform random selection. DColor palettes only shrink
// (Lemma 4.2's invariant builds on that); SColor rebuilds its palette
// every round, in place (reset).
//
// A palette of up to 64 colors keeps its one word inline, so the palette
// of an instance in a DColor block sits in the block itself and costs no
// allocation. Its words then point into the palette value: reset a
// palette in place, and never copy one to use the copy as a second
// palette.
type palette struct {
	words []uint64
	size  int
	first [1]uint64 // words' storage for palettes of up to 64 colors
}

// reset refills the palette to {1, …, k} in place: inline for up to 64
// colors, otherwise reusing its word storage when it is large enough.
func (p *palette) reset(k int) {
	if k < 0 {
		k = 0
	}
	n := (k + 63) / 64
	switch {
	case n <= len(p.first):
		p.words = p.first[:n]
	case cap(p.words) < n:
		p.words = make([]uint64, n)
	default:
		p.words = p.words[:n]
	}
	for i := range p.words {
		p.words[i] = ^uint64(0)
	}
	if k%64 != 0 && n > 0 {
		p.words[n-1] = (1 << uint(k%64)) - 1
	}
	p.size = k
}

// clear empties the palette, keeping its word storage for the next reset.
func (p *palette) clear() {
	p.words, p.size = p.words[:0], 0
}

// contains reports whether color c is in the palette.
func (p *palette) contains(c int64) bool {
	idx := c - 1
	if idx < 0 || idx >= int64(len(p.words)*64) {
		return false
	}
	return p.words[idx/64]&(1<<uint(idx%64)) != 0
}

// remove deletes color c if present.
func (p *palette) remove(c int64) {
	idx := c - 1
	if idx < 0 || idx >= int64(len(p.words)*64) {
		return
	}
	w := &p.words[idx/64]
	bit := uint64(1) << uint(idx%64)
	if *w&bit != 0 {
		*w &^= bit
		p.size--
	}
}

// len returns the number of colors in the palette.
func (p *palette) len() int { return p.size }

// pick returns a uniformly random member. It panics on an empty palette —
// the algorithms guarantee non-emptiness (Lemma 4.2).
func (p *palette) pick(s *prf.Stream) int64 {
	if p.size == 0 {
		panic("coloring: pick from empty palette")
	}
	target := s.Intn(p.size)
	for wi, w := range p.words {
		c := bits.OnesCount64(w)
		if target >= c {
			target -= c
			continue
		}
		// Select the (target+1)-th set bit of w.
		for b := 0; ; b++ {
			if w&(1<<uint(b)) != 0 {
				if target == 0 {
					return int64(wi*64+b) + 1
				}
				target--
			}
		}
	}
	panic("coloring: palette size out of sync")
}
