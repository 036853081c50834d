package graph

import "sort"

// Union returns the graph containing every edge of g or h. Both operands
// must share the same node space. Implemented as a linear merge of the
// two sorted edge lists.
func Union(g, h *Graph) *Graph {
	mustSameN(g, h)
	a, b := g.Edges(), h.Edges()
	out := make([]EdgeKey, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return fromSortedKeys(g.n, out)
}

// Intersection returns the graph containing the edges present in both g
// and h. Both operands must share the same node space.
func Intersection(g, h *Graph) *Graph {
	mustSameN(g, h)
	a, b := g.Edges(), h.Edges()
	min := len(a)
	if len(b) < min {
		min = len(b)
	}
	out := make([]EdgeKey, 0, min)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return fromSortedKeys(g.n, out)
}

// Ball returns the set of nodes within distance radius of v (including v),
// sorted ascending. radius 0 yields {v}.
func Ball(g *Graph, v NodeID, radius int) []NodeID {
	dist := map[NodeID]int{v: 0}
	frontier := []NodeID{v}
	for d := 0; d < radius; d++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if _, ok := dist[w]; !ok {
					dist[w] = d + 1
					next = append(next, w)
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BallFingerprint hashes the induced subgraph on the radius-ball around v,
// including the ball's membership. Two rounds in which a node's α-ball is
// topologically identical (same member set and same edges among members,
// matching "G_l[N^α(v)] = G_l'[N^α(v)]" in property B.2) produce equal
// fingerprints; unequal topologies collide with probability ~2^-64.
func BallFingerprint(g *Graph, v NodeID, radius int) uint64 {
	members := Ball(g, v, radius)
	const (
		offset = 0xcbf29ce484222325
		prime  = 0x100000001b3
	)
	h := uint64(offset)
	mix := func(x uint64) {
		h ^= x
		h *= prime
		h ^= h >> 29
	}
	in := make(map[NodeID]bool, len(members))
	for _, u := range members {
		in[u] = true
	}
	for _, u := range members {
		mix(uint64(uint32(u)) | 1<<40)
		for _, w := range g.Neighbors(u) {
			if u < w && in[w] {
				mix(uint64(MakeEdgeKey(u, w)))
			}
		}
	}
	return h
}

func mustSameN(g, h *Graph) {
	if g.n != h.n {
		panic("graph: operand node spaces differ")
	}
}

// SortEdgeKeys sorts keys ascending with a least-significant-byte-first
// radix sort through tmp, which must be as long as keys, skipping the
// bytes every key shares. It returns whichever of the two holds the
// result. Keys over at most 2^16 nodes vary in at most four bytes, so
// large key sets sort in four linear passes, several times faster than
// slices.Sort.
//
//dynlint:sorted return
func SortEdgeKeys(keys, tmp []EdgeKey) []EdgeKey {
	if len(keys) < 2 {
		return keys
	}
	var counts [8][256]int
	for _, k := range keys {
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(keys[0]>>(8*d))] == len(keys) {
			continue
		}
		sum := 0
		for b, n := range c {
			c[b] = sum
			sum += n
		}
		for _, k := range keys {
			b := byte(k >> (8 * d))
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

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
