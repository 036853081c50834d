package graph_test

import (
	"slices"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
	"dynlocal/internal/prf"
)

// withEdges returns g with the edges {u, v} of pairs added.
func withEdges(g *graph.Graph, pairs ...[2]graph.NodeID) *graph.Graph {
	keys := slices.Clone(g.Edges())
	for _, p := range pairs {
		keys = append(keys, graph.MakeEdgeKey(p[0], p[1]))
	}
	return graph.FromEdges(g.N(), keys)
}

func TestBallFingerprintSensitivity(t *testing.T) {
	g := graph.Path(7)
	fp := graph.BallFingerprint(g, 3, 2)
	// Change inside the 2-ball: must differ.
	if graph.BallFingerprint(withEdges(g, [2]graph.NodeID{2, 4}), 3, 2) == fp {
		t.Fatal("fingerprint insensitive to in-ball change")
	}
	// Change outside the 2-ball (edge {5,6} is at distance >2 from 3's
	// 2-ball interior edges? node 5 IS in the 2-ball, so use {0,6}).
	if graph.BallFingerprint(withEdges(g, [2]graph.NodeID{0, 6}), 3, 2) != fp {
		t.Fatal("fingerprint sensitive to out-of-ball change")
	}
}

func TestBallStatic(t *testing.T) {
	g := graph.Path(7)
	h := withEdges(g, [2]graph.NodeID{0, 6}) // outside 2-ball of node 3 (members 1..5, edge 0-6 not induced)
	if !graphtest.BallStatic(g, h, 3, 2) {
		t.Fatal("out-of-ball change flagged as non-static")
	}
	if graphtest.BallStatic(g, withEdges(h, [2]graph.NodeID{2, 4}), 3, 2) { // inside
		t.Fatal("in-ball change not detected")
	}
	// Membership change: connect 6 to 4 puts 6 within distance 2 of 3.
	if graphtest.BallStatic(g, withEdges(g, [2]graph.NodeID{4, 6}), 3, 2) {
		t.Fatal("membership change not detected")
	}
}

func TestBallFingerprintMatchesBallStatic(t *testing.T) {
	s := prf.NewStream(11, 0, 0, prf.PurposeWorkload)
	for trial := 0; trial < 25; trial++ {
		a := graph.GNP(30, 0.1, s)
		b := graph.GNP(30, 0.1, s)
		for v := graph.NodeID(0); v < 30; v++ {
			stat := graphtest.BallStatic(a, b, v, 2)
			fpEq := graph.BallFingerprint(a, v, 2) == graph.BallFingerprint(b, v, 2)
			if stat != fpEq {
				t.Fatalf("trial %d node %d: BallStatic=%v fingerprintEq=%v", trial, v, stat, fpEq)
			}
		}
	}
}
