package graph

import (
	"math"

	"dynlocal/internal/prf"
)

// Generators build the synthetic workload graphs used by the experiments.
// All of them draw randomness from a prf.Stream so workloads are
// reproducible and independent of algorithm randomness. Generators that
// emit edges in canonical key order assemble the CSR graph directly via
// FromSortedEdges; the rest go through FromEdges (sort + dedup).

// GNP returns an Erdős–Rényi G(n, p) graph.
func GNP(n int, p float64, s *prf.Stream) *Graph {
	if p <= 0 {
		return Empty(n)
	}
	if p >= 1 {
		return Complete(n)
	}
	// Geometric skipping over the n(n-1)/2 potential edges: O(m) draws.
	// Linear indexes are visited strictly ascending, and the row-major
	// upper-triangle order is exactly EdgeKey order, so the (u, v)
	// decoding advances incrementally — O(m + n) total instead of a
	// prefix-sum scan per edge.
	logq := math.Log(1 - p)
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	keys := make([]EdgeKey, 0, int(float64(total)*p*1.1)+8)
	row := int64(0)        // current row u
	rowStart := int64(0)   // linear index of (u, u+1)
	rowLen := int64(n - 1) // edges in the current row
	for {
		u := s.Float64()
		if u >= 1 {
			u = math.Nextafter(1, 0)
		}
		skip := int64(math.Floor(math.Log(1-u) / logq))
		idx += 1 + skip
		if idx >= total {
			break
		}
		for idx-rowStart >= rowLen {
			rowStart += rowLen
			rowLen--
			row++
		}
		v := row + 1 + (idx - rowStart)
		keys = append(keys, MakeEdgeKey(NodeID(row), NodeID(v)))
	}
	return FromSortedEdges(n, keys)
}

// Complete returns K_n.
func Complete(n int) *Graph {
	keys := make([]EdgeKey, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			keys = append(keys, MakeEdgeKey(NodeID(u), NodeID(v)))
		}
	}
	return FromSortedEdges(n, keys)
}

// Cycle returns C_n (n >= 3); for n < 3 it returns a path.
func Cycle(n int) *Graph {
	keys := make([]EdgeKey, 0, n)
	for i := 0; i+1 < n; i++ {
		keys = append(keys, MakeEdgeKey(NodeID(i), NodeID(i+1)))
	}
	if n >= 3 {
		keys = append(keys, MakeEdgeKey(NodeID(n-1), 0))
	}
	return FromEdges(n, keys)
}

// Path returns P_n.
func Path(n int) *Graph {
	keys := make([]EdgeKey, 0, n)
	for i := 0; i+1 < n; i++ {
		keys = append(keys, MakeEdgeKey(NodeID(i), NodeID(i+1)))
	}
	return FromSortedEdges(n, keys)
}

// Grid returns the rows×cols king-free (4-neighbor) grid graph on
// rows*cols nodes in row-major order.
func Grid(rows, cols int) *Graph {
	keys := make([]EdgeKey, 0, 2*rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				keys = append(keys, MakeEdgeKey(id(r, c), id(r, c+1)))
			}
			if r+1 < rows {
				keys = append(keys, MakeEdgeKey(id(r, c), id(r+1, c)))
			}
		}
	}
	return FromSortedEdges(rows*cols, keys)
}

// Star returns K_{1,n-1} with node 0 as the center.
func Star(n int) *Graph {
	keys := make([]EdgeKey, 0, n-1)
	for v := 1; v < n; v++ {
		keys = append(keys, MakeEdgeKey(0, NodeID(v)))
	}
	return FromSortedEdges(n, keys)
}

// Caterpillar returns a path of spineLen nodes with legsPerSpine leaf
// nodes hanging off each spine node — a worst case for greedy coloring
// palettes and a classic MIS stress shape.
func Caterpillar(spineLen, legsPerSpine int) *Graph {
	n := spineLen * (1 + legsPerSpine)
	keys := make([]EdgeKey, 0, n)
	for i := 0; i+1 < spineLen; i++ {
		keys = append(keys, MakeEdgeKey(NodeID(i), NodeID(i+1)))
	}
	leg := spineLen
	for i := 0; i < spineLen; i++ {
		for j := 0; j < legsPerSpine; j++ {
			keys = append(keys, MakeEdgeKey(NodeID(i), NodeID(leg)))
			leg++
		}
	}
	return FromEdges(n, keys)
}

// Point is a 2-D coordinate in the unit square, used by the geometric
// generator and the mobility example.
type Point struct{ X, Y float64 }

// RandomPoints draws n uniform points in the unit square.
func RandomPoints(n int, s *prf.Stream) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: s.Float64(), Y: s.Float64()}
	}
	return pts
}

// Geometric returns the unit-disk graph connecting points at Euclidean
// distance <= radius. Uses a uniform grid bucket index so construction is
// near-linear for constant expected degree.
func Geometric(pts []Point, radius float64) *Graph {
	n := len(pts)
	if radius <= 0 {
		return Empty(n)
	}
	cell := radius
	cols := int(1/cell) + 1
	bucket := make(map[int][]NodeID)
	key := func(p Point) int {
		cx := int(p.X / cell)
		cy := int(p.Y / cell)
		return cy*cols + cx
	}
	for i, p := range pts {
		bucket[key(p)] = append(bucket[key(p)], NodeID(i))
	}
	r2 := radius * radius
	var keys []EdgeKey
	for i, p := range pts {
		cx := int(p.X / cell)
		cy := int(p.Y / cell)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				for _, j := range bucket[(cy+dy)*cols+(cx+dx)] {
					if j <= NodeID(i) {
						continue
					}
					q := pts[j]
					ddx, ddy := p.X-q.X, p.Y-q.Y
					if ddx*ddx+ddy*ddy <= r2 {
						keys = append(keys, MakeEdgeKey(NodeID(i), j))
					}
				}
			}
		}
	}
	return FromEdges(n, keys)
}
