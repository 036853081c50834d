package graph

import (
	"math"
	"testing"
)

func TestGNPEdgeCount(t *testing.T) {
	const n = 200
	const p = 0.1
	g := GNP(n, p, stream(7))
	expected := p * float64(n) * float64(n-1) / 2
	sd := math.Sqrt(expected * (1 - p))
	if math.Abs(float64(g.M())-expected) > 6*sd {
		t.Fatalf("GNP edge count %d far from expectation %v", g.M(), expected)
	}
}

func TestGNPExtremes(t *testing.T) {
	if GNP(10, 0, stream(1)).M() != 0 {
		t.Fatal("GNP(p=0) produced edges")
	}
	if GNP(10, 1, stream(1)).M() != 45 {
		t.Fatal("GNP(p=1) is not complete")
	}
	if GNP(10, -0.5, stream(1)).M() != 0 {
		t.Fatal("GNP(p<0) produced edges")
	}
}

func TestGNPDeterministicPerStream(t *testing.T) {
	a := GNP(50, 0.2, stream(42))
	b := GNP(50, 0.2, stream(42))
	if !a.Equal(b) {
		t.Fatal("GNP not deterministic for equal streams")
	}
	c := GNP(50, 0.2, stream(43))
	if a.Equal(c) {
		t.Fatal("GNP identical across different seeds (suspicious)")
	}
}

func TestGNPIndexDecodingCoversAllPairs(t *testing.T) {
	// The incremental linear-index decoding must reach every pair of the
	// upper triangle: the union of many dense draws is K_n. Distinctness
	// and ordering are enforced by FromSortedEdges inside GNP (it panics
	// on non-ascending keys), so coverage is the remaining property.
	const n = 9
	acc := Empty(n)
	for seed := uint64(0); seed < 50; seed++ {
		acc = Union(acc, GNP(n, 0.7, stream(seed)))
	}
	if !acc.Equal(Complete(n)) {
		t.Fatalf("dense GNP union missed pairs:\n%s", acc.DebugString())
	}
}

func TestCompleteAndCycleAndPath(t *testing.T) {
	k := Complete(6)
	if k.M() != 15 || k.MaxDegree() != 5 {
		t.Fatalf("K6 wrong: m=%d", k.M())
	}
	c := Cycle(6)
	if c.M() != 6 {
		t.Fatalf("C6 wrong: m=%d", c.M())
	}
	for v := NodeID(0); v < 6; v++ {
		if c.Degree(v) != 2 {
			t.Fatalf("C6 degree(%d)=%d", v, c.Degree(v))
		}
	}
	p := Path(6)
	if p.M() != 5 || p.Degree(0) != 1 || p.Degree(3) != 2 {
		t.Fatal("P6 wrong")
	}
	if Cycle(2).M() != 1 {
		t.Fatal("Cycle(2) should degrade to a single edge")
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.N() != 12 {
		t.Fatalf("grid N = %d", g.N())
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8.
	if g.M() != 17 {
		t.Fatalf("grid M = %d, want 17", g.M())
	}
	if g.Degree(0) != 2 || g.Degree(5) != 4 {
		t.Fatal("grid corner/interior degrees wrong")
	}
}

func TestStar(t *testing.T) {
	s := Star(7)
	if s.M() != 6 || s.Degree(0) != 6 {
		t.Fatal("star wrong")
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(4, 3)
	if g.N() != 16 {
		t.Fatalf("caterpillar N=%d", g.N())
	}
	// spine edges 3 + legs 12.
	if g.M() != 15 {
		t.Fatalf("caterpillar M=%d", g.M())
	}
	if g.Degree(0) != 4 || g.Degree(1) != 5 {
		t.Fatalf("caterpillar spine degrees wrong: %d, %d", g.Degree(0), g.Degree(1))
	}
}

func TestGeometricMatchesBruteForce(t *testing.T) {
	s := stream(9)
	pts := RandomPoints(120, s)
	const radius = 0.15
	g := Geometric(pts, radius)
	var keys []EdgeKey
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			dx := pts[i].X - pts[j].X
			dy := pts[i].Y - pts[j].Y
			if dx*dx+dy*dy <= radius*radius {
				keys = append(keys, MakeEdgeKey(NodeID(i), NodeID(j)))
			}
		}
	}
	want := FromEdges(len(pts), keys)
	if !g.Equal(want) {
		t.Fatalf("geometric graph mismatch: got m=%d want m=%d", g.M(), want.M())
	}
}

func TestGeometricZeroRadius(t *testing.T) {
	pts := RandomPoints(10, stream(2))
	if Geometric(pts, 0).M() != 0 {
		t.Fatal("zero radius produced edges")
	}
}

func BenchmarkGNP(b *testing.B) {
	s := stream(1)
	for i := 0; i < b.N; i++ {
		_ = GNP(1000, 0.01, s)
	}
}

func BenchmarkGeometric(b *testing.B) {
	pts := RandomPoints(2000, stream(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Geometric(pts, 0.03)
	}
}
