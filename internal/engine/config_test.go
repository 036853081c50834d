package engine

import (
	"slices"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// TestOutputLagBoundary pins the documented zero-value behavior of
// Config.OutputLag: 0 selects DefaultOutputLag, positive values are taken
// as-is, negatives panic in New.
func TestOutputLagBoundary(t *testing.T) {
	cases := []struct {
		name   string
		in     int
		want   int
		panics bool
	}{
		{"zero-selects-default", 0, DefaultOutputLag, false},
		{"one-is-adaptive-online", 1, 1, false},
		{"explicit", 5, 5, false},
		{"negative-panics", -1, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Fatalf("recover() = %v, want panic %v", r, c.panics)
				}
			}()
			e := New(Config{N: 8, OutputLag: c.in}, adversary.Static{G: graph.Cycle(8)}, degreeAlgo{})
			if e.lag != c.want {
				t.Fatalf("lag = %d, want %d", e.lag, c.want)
			}
			if len(e.snaps) != c.want+1 {
				t.Fatalf("snapshot ring holds %d slots, want OutputLag+1 = %d", len(e.snaps), c.want+1)
			}
		})
	}
}

// TestRoundGraphBuiltOncePerRound pins that a round's graph is built at
// most once: a second Graph call in the same round returns the same
// pointer.
func TestRoundGraphBuiltOncePerRound(t *testing.T) {
	const n = 64
	e := New(Config{N: n, Seed: 5}, churnAdv(n)(), degreeAlgo{})
	for r := 1; r <= 6; r++ {
		info := e.Step()
		if g := info.Graph(); info.Graph() != g {
			t.Fatalf("round %d: second Graph call rebuilt the graph", r)
		}
	}
}

// TestRetainOutlivesPooledBuffers verifies the sanctioned way to hold a
// round: a Retained copy is unaffected by ten further rounds of pool
// reuse — including its materialized graph — while the live RoundInfo of
// a sparse engine refuses to materialize once the engine has moved on.
func TestRetainOutlivesPooledBuffers(t *testing.T) {
	const n = 64
	e := New(Config{N: n, Seed: 5}, churnAdv(n)(), degreeAlgo{})
	var retained, live *RoundInfo
	var wantOut []problems.Value
	var wantChanged []graph.NodeID
	var wantAdds, wantKeys []graph.EdgeKey
	e.OnRound(func(info *RoundInfo) {
		if info.Round == 5 {
			//dynlint:ignore loancheck deliberately keeps the raw pooled round to assert Graph() panics after the engine moves on
			live = info
			retained = info.Retain()
			wantOut = slices.Clone(info.Outputs)
			wantChanged = slices.Clone(info.Changed)
			wantAdds = slices.Clone(info.EdgeAdds)
			wantKeys = slices.Clone(info.Graph().EdgeKeys())
		}
	})
	e.Run(15)
	if retained.Round != 5 {
		t.Fatalf("retained round = %d, want 5", retained.Round)
	}
	if !slices.Equal(retained.Outputs, wantOut) {
		t.Fatal("retained outputs mutated by later rounds")
	}
	if !slices.Equal(retained.Changed, wantChanged) {
		t.Fatal("retained changed feed mutated by later rounds")
	}
	if !slices.Equal(retained.EdgeAdds, wantAdds) {
		t.Fatal("retained edge adds mutated by later rounds")
	}
	if !slices.Equal(retained.Graph().EdgeKeys(), wantKeys) {
		t.Fatal("retained graph mutated by later rounds")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("live RoundInfo.Graph() after the engine moved on: expected panic")
		}
	}()
	live.Graph()
}
