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

// Difference returns the graph containing the edges of g that are not in h.
func Difference(g, h *Graph) *Graph {
	mustSameN(g, h)
	a, b := g.Edges(), h.Edges()
	out := make([]EdgeKey, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j >= len(b) || b[j] != a[i] {
			out = append(out, a[i])
		}
		i++
	}
	return fromSortedKeys(g.n, out)
}

// IntersectAll folds Intersection over a non-empty slice of graphs.
func IntersectAll(gs []*Graph) *Graph {
	if len(gs) == 0 {
		panic("graph: IntersectAll of empty slice")
	}
	acc := gs[0]
	for _, g := range gs[1:] {
		acc = Intersection(acc, g)
	}
	return acc
}

// UnionAll folds Union over a non-empty slice of graphs.
func UnionAll(gs []*Graph) *Graph {
	if len(gs) == 0 {
		panic("graph: UnionAll of empty slice")
	}
	acc := gs[0]
	for _, g := range gs[1:] {
		mustSameN(gs[0], g)
		acc = Union(acc, g)
	}
	return acc
}

// InducedSubgraph returns the graph on the same node space keeping only
// edges with both endpoints in keep.
func InducedSubgraph(g *Graph, keep []NodeID) *Graph {
	in := make([]bool, g.n)
	for _, v := range keep {
		in[v] = true
	}
	var out []EdgeKey
	g.EachEdge(func(u, v NodeID) {
		if in[u] && in[v] {
			out = append(out, MakeEdgeKey(u, v))
		}
	})
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

// BallStatic reports whether the induced radius-ball around v is identical
// in graphs a and b (exact comparison, not fingerprint).
func BallStatic(a, b *Graph, v NodeID, radius int) bool {
	ma := Ball(a, v, radius)
	mb := Ball(b, v, radius)
	if len(ma) != len(mb) {
		return false
	}
	for i := range ma {
		if ma[i] != mb[i] {
			return false
		}
	}
	in := make(map[NodeID]bool, len(ma))
	for _, u := range ma {
		in[u] = true
	}
	for _, u := range ma {
		for _, w := range a.Neighbors(u) {
			if u < w && in[w] && !b.HasEdge(u, w) {
				return false
			}
		}
		for _, w := range b.Neighbors(u) {
			if u < w && in[w] && !a.HasEdge(u, w) {
				return false
			}
		}
	}
	return true
}

// ConnectedComponents returns a component label per node (labels are
// the minimal node id in each component) and the number of components,
// counting isolated nodes as singleton components.
func ConnectedComponents(g *Graph) (label []NodeID, count int) {
	label = make([]NodeID, g.n)
	for i := range label {
		label[i] = -1
	}
	var stack []NodeID
	for v := 0; v < g.n; v++ {
		if label[v] != -1 {
			continue
		}
		count++
		root := NodeID(v)
		label[v] = root
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if label[w] == -1 {
					label[w] = root
					stack = append(stack, w)
				}
			}
		}
	}
	return label, count
}

// IsIndependentSet reports whether no two nodes of set are adjacent in g.
func IsIndependentSet(g *Graph, set []NodeID) bool {
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range set {
		for _, u := range g.Neighbors(v) {
			if in[u] {
				return false
			}
		}
	}
	return true
}

// IsDominatingSet reports whether every node in universe is in set or has
// a neighbor in set.
func IsDominatingSet(g *Graph, set []NodeID, universe []NodeID) bool {
	in := make(map[NodeID]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for _, v := range universe {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
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
