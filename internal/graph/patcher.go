package graph

import (
	"fmt"
	"slices"
)

// DiffSortedKeys appends cur\prev to adds and prev\cur to removes and
// returns both, a single linear merge over two strictly ascending edge-key
// lists (typically two graphs' EdgeKeys views). Callers reuse the
// destination buffers across rounds by passing them re-sliced to length 0.
//
//dynlint:sorted prev cur return
func DiffSortedKeys(prev, cur, adds, removes []EdgeKey) ([]EdgeKey, []EdgeKey) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch {
		case prev[i] < cur[j]:
			removes = append(removes, prev[i])
			i++
		case prev[i] > cur[j]:
			adds = append(adds, cur[j])
			j++
		default:
			i++
			j++
		}
	}
	removes = append(removes, prev[i:]...)
	adds = append(adds, cur[j:]...)
	//dynlint:ignore sortedcheck two-pointer merge over ascending inputs emits ascending output by construction
	return adds, removes
}

// patchArena is one generation of Patcher-owned graph storage: the CSR
// arrays plus the sorted key list, and a reusable Graph header pointing at
// them.
type patchArena struct {
	g         Graph
	offsets   []int32
	neighbors []NodeID
	keys      []EdgeKey
}

// Patcher maintains a current CSR graph under sorted edge add/remove
// deltas without the per-round counting rebuild of FromSortedEdges: Apply
// merges the diff into the spare of two pooled arenas (offsets, neighbors,
// keys) that ping-pong between rounds — untouched adjacency rows are block
// copies, touched rows a three-way merge, and the sorted key list one
// linear merge.
//
// # Ownership
//
// Graphs returned by Apply alias Patcher-owned arenas. With two arenas the
// graph returned by one Apply call stays valid through the next call and
// is recycled by the one after that: callers may hold the current and the
// previous graph (exactly what a round loop diffing consecutive rounds
// needs) and must Clone anything retained longer. A no-change Apply
// returns the current graph unchanged, which only extends lifetimes.
// Graphs adopted via Reset are caller-owned and never recycled.
type Patcher struct {
	n      int
	cur    *Graph
	flip   int
	arenas [2]patchArena

	// Per-round scratch: the (v, u) mirrors of the add/remove lists, so
	// row patches for the higher endpoint are available in sorted order.
	revAdd, revRem []EdgeKey
}

// NewPatcher creates a patcher over an n-node universe whose current graph
// is the empty graph.
func NewPatcher(n int) *Patcher {
	return &Patcher{n: n, cur: Empty(n)}
}

// N returns the node-universe size.
func (p *Patcher) N() int { return p.n }

// Current returns the current graph (the result of the last Apply/Reset,
// or the empty graph).
func (p *Patcher) Current() *Graph { return p.cur }

// Reset adopts g as the current graph, e.g. a starting topology other
// than the empty graph. g must stay valid until the next Apply reads it.
func (p *Patcher) Reset(g *Graph) {
	if g.N() != p.n {
		panic(fmt.Sprintf("graph: Patcher.Reset node space %d, want %d", g.N(), p.n))
	}
	p.cur = g
}

// mirror fills dst with the (v, u) swap of every key in keys, sorted
// ascending, reusing dst's capacity.
func mirror(keys, dst []EdgeKey) []EdgeKey {
	dst = dst[:0]
	for _, k := range keys {
		u, v := k.Nodes()
		dst = append(dst, EdgeKey(uint64(uint32(v))<<32|uint64(uint32(u))))
	}
	slices.Sort(dst)
	return dst
}

// hi returns the first (row) component of a packed key.
func hi(k EdgeKey) NodeID { return NodeID(uint32(k >> 32)) }

// lo returns the second (column) component of a packed key.
func lo(k EdgeKey) NodeID { return NodeID(uint32(k)) }

// Apply advances the current graph by one sorted delta and returns the
// new graph (see the type comment for its lifetime). adds and removes must
// be strictly ascending canonical edge keys with endpoints inside the node
// universe; every added edge must be absent from and every removed edge
// present in the current graph. Violations panic — a malformed delta means
// the topology source and the graph have diverged, and patching on would
// corrupt every downstream window. Cost is O(n + m) with block-copy
// constants plus O(c log c) for c = |adds| + |removes|, and zero
// steady-state allocations.
//
//dynlint:loan
//dynlint:sorted adds removes
func (p *Patcher) Apply(adds, removes []EdgeKey) *Graph {
	if len(adds) == 0 && len(removes) == 0 {
		return p.cur
	}
	cur := p.cur
	ar := &p.arenas[p.flip]
	p.flip ^= 1

	newM := cur.m + len(adds) - len(removes)
	if newM < 0 {
		panicBadDelta("more removals than edges")
	}

	// Key merge: cur.keys + adds - removes -> ar.keys, validating the
	// delta against the current edge set along the way.
	keys := ar.keys[:0]
	if cap(keys) < newM {
		keys = make([]EdgeKey, 0, newM+newM/4)
	}
	var lastAdd, lastRem EdgeKey
	i, a, d := 0, 0, 0
	for i < len(cur.keys) || a < len(adds) {
		if a < len(adds) && (i >= len(cur.keys) || adds[a] < cur.keys[i]) {
			k := adds[a]
			if a > 0 && k <= lastAdd {
				panicBadDelta("adds not strictly ascending")
			}
			lastAdd = k
			u, v := k.Nodes()
			if u < 0 || u >= v || int(v) >= p.n {
				panic(fmt.Sprintf("graph: Patcher.Apply add %s outside universe [0,%d)", k, p.n))
			}
			keys = append(keys, k)
			a++
			continue
		}
		k := cur.keys[i]
		if a < len(adds) && adds[a] == k {
			panic(fmt.Sprintf("graph: Patcher.Apply add of present edge %s", k))
		}
		if d < len(removes) {
			if d > 0 && removes[d] <= lastRem {
				panicBadDelta("removes not strictly ascending")
			}
			if removes[d] < k {
				panic(fmt.Sprintf("graph: Patcher.Apply remove of absent edge %s", removes[d]))
			}
			if removes[d] == k {
				lastRem = removes[d]
				d++
				i++
				continue
			}
		}
		keys = append(keys, k)
		i++
	}
	if d < len(removes) {
		panic(fmt.Sprintf("graph: Patcher.Apply remove of absent edge %s", removes[d]))
	}
	ar.keys = keys

	p.revAdd = mirror(adds, p.revAdd)
	p.revRem = mirror(removes, p.revRem)

	// Offsets: old prefix sums shifted by the cumulative per-node degree
	// delta — one pass over the node space, one comparison per delta entry.
	offs := ar.offsets
	if cap(offs) < p.n+1 {
		offs = make([]int32, p.n+1)
	}
	offs = offs[:p.n+1]
	offs[0] = 0
	{
		af, arv, rf, rrv := 0, 0, 0, 0
		shift := int32(0)
		for x := 0; x < p.n; x++ {
			id := NodeID(x)
			for af < len(adds) && hi(adds[af]) == id {
				shift++
				af++
			}
			for arv < len(p.revAdd) && hi(p.revAdd[arv]) == id {
				shift++
				arv++
			}
			for rf < len(removes) && hi(removes[rf]) == id {
				shift--
				rf++
			}
			for rrv < len(p.revRem) && hi(p.revRem[rrv]) == id {
				shift--
				rrv++
			}
			offs[x+1] = cur.offsets[x+1] + shift
		}
	}
	ar.offsets = offs

	// Neighbors: block-copy maximal runs of untouched rows (their contents
	// are unchanged, only shifted), merge-patch the touched rows.
	nbrs := ar.neighbors
	if cap(nbrs) < 2*newM {
		nbrs = make([]NodeID, 2*newM+newM/2)
	}
	nbrs = nbrs[:2*newM]
	{
		af, arv, rf, rrv := 0, 0, 0, 0
		x := 0
		for x < p.n {
			// Next row touched by any delta entry.
			nt := p.n
			if af < len(adds) && int(hi(adds[af])) < nt {
				nt = int(hi(adds[af]))
			}
			if arv < len(p.revAdd) && int(hi(p.revAdd[arv])) < nt {
				nt = int(hi(p.revAdd[arv]))
			}
			if rf < len(removes) && int(hi(removes[rf])) < nt {
				nt = int(hi(removes[rf]))
			}
			if rrv < len(p.revRem) && int(hi(p.revRem[rrv])) < nt {
				nt = int(hi(p.revRem[rrv]))
			}
			if nt > x {
				copy(nbrs[offs[x]:offs[nt]], cur.neighbors[cur.offsets[x]:cur.offsets[nt]])
				x = nt
				continue
			}
			// Patch row x: merge the old row with its added neighbors,
			// dropping the removed ones. The smaller-endpoint additions
			// come from the mirrored list (ascending, all < x), then the
			// larger-endpoint ones from the forward list (ascending, all
			// > x) — concatenated they are ascending.
			id := NodeID(x)
			row := cur.neighbors[cur.offsets[x]:cur.offsets[x+1]]
			w := offs[x]
			nextAdd := func() (NodeID, bool) {
				if arv < len(p.revAdd) && hi(p.revAdd[arv]) == id {
					return lo(p.revAdd[arv]), true
				}
				if af < len(adds) && hi(adds[af]) == id {
					return lo(adds[af]), true
				}
				return 0, false
			}
			popAdd := func() {
				if arv < len(p.revAdd) && hi(p.revAdd[arv]) == id {
					arv++
				} else {
					af++
				}
			}
			nextRem := func() (NodeID, bool) {
				if rrv < len(p.revRem) && hi(p.revRem[rrv]) == id {
					return lo(p.revRem[rrv]), true
				}
				if rf < len(removes) && hi(removes[rf]) == id {
					return lo(removes[rf]), true
				}
				return 0, false
			}
			ri := 0
			for {
				av, aok := nextAdd()
				if ri < len(row) && (!aok || row[ri] < av) {
					if rv, rok := nextRem(); rok && rv == row[ri] {
						if rrv < len(p.revRem) && hi(p.revRem[rrv]) == id {
							rrv++
						} else {
							rf++
						}
						ri++
						continue
					}
					nbrs[w] = row[ri]
					w++
					ri++
					continue
				}
				if !aok {
					break
				}
				nbrs[w] = av
				w++
				popAdd()
			}
			if w != offs[x+1] {
				panicBadDelta("row patch did not match degree delta")
			}
			x++
		}
	}
	ar.neighbors = nbrs

	ar.g = Graph{n: p.n, m: newM, offsets: offs, neighbors: nbrs, keys: keys}
	p.cur = &ar.g
	return p.cur
}

// panicBadDelta is the cold path for malformed deltas, kept out of the
// merge loops so they stay free of fmt machinery.
func panicBadDelta(msg string) {
	panic("graph: Patcher.Apply: " + msg)
}
