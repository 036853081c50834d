package dynlocal

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// The engine tells Process that none of the node's edges changed this
// round (Ctx.Steady), and DColor then counts its inbox without walking
// its intersection-neighbor streak table. The oracle is the same run
// with the hint cleared before every Process (steadyBlind), in which
// every DColor round walks its table: the two runs must agree round for
// round, checkpoint records included.

// steadyBlind runs an algorithm with Ctx.Steady cleared before every
// Process. It forwards the optional interfaces the engine looks for as
// isolationBlind does, so the run differs from the unwrapped one only in
// what Process sees.
type steadyBlind struct{ isolationBlind }

func (a steadyBlind) NewNode(v graph.NodeID) engine.NodeProc {
	return &blindNode{NodeProc: a.Algorithm.NewNode(v), steady: true}
}

// steadyRound is what the steady oracle test compares per round: the
// round's observer view and the SHA-256 of the checkpoint record written
// after it (zero for a resumed run, which writes none).
type steadyRound struct {
	Outputs  []Value
	Messages int
	Bits     int64
	Changed  []NodeID
	Record   [sha256.Size]byte
}

// steadyScenario is one workload of the steady oracle test.
type steadyScenario struct {
	name   string
	n      int
	rounds int
	algo   func(n int) Algorithm
	adv    func(n int) Adversary
	short  bool // kept under -short
}

func steadyScenarios() []steadyScenario {
	const n = 256
	combined := func(n int) Algorithm { return NewColoring(n) }
	churn := func(add, del int) func(n int) Adversary {
		return func(n int) Adversary { return NewChurn(GNP(n, 8.0/float64(n), 3), add, del, 5) }
	}
	return []steadyScenario{
		{"churn=2", n, 70, combined, churn(1, 1), false},
		{"churn=16", n, 70, combined, churn(8, 8), true},
		{"churn=64", n, 70, combined, churn(32, 32), false},
		// G(n, 1/n) under 8+8 churn parks isolated settled nodes and
		// unparks them when they regain an edge, so DColor instances
		// also run through Concat's replay, which leaves Steady false.
		{"sparse-churn", n, 100, combined, func(n int) Adversary {
			return NewChurn(GNP(n, 1.0/float64(n), 31), 8, 8, 32)
		}, false},
		// Departed peers park for good; joining peers wake with edges.
		{"p2p", 2 * n, 70, combined, func(n int) Adversary {
			return &P2PChurnAdversary{N: n, Init: n / 8, JoinPerRound: 4, Seed: 23}
		}, true},
		{"wakeup", n, 70, combined, func(n int) Adversary {
			return &WakeupAdversary{Inner: NewChurn(GNP(n, 8.0/float64(n), 7), 4, 4, 9), Schedule: StaggeredSchedule(n, 16)}
		}, true},
		// Standalone DColor: every awake node broadcasts on channel 0.
		{"dcolor/churn=16", n, 60, func(n int) Algorithm { return NewDColor(n) }, churn(8, 8), false},
	}
}

// run builds a run of the scenario, plain or under steadyBlind; every
// round is appended to the returned slice.
func (s steadyScenario) run(workers int, blind bool) (*Engine, *[]steadyRound) {
	algo := s.algo(s.n)
	if blind {
		algo = steadyBlind{isolationBlind{algo}}
	}
	eng := NewEngine(EngineConfig{N: s.n, Seed: 41, Workers: workers}, s.adv(s.n), algo)
	rounds := new([]steadyRound)
	eng.OnRound(func(info *RoundInfo) {
		*rounds = append(*rounds, steadyRound{slices.Clone(info.Outputs), info.Messages, info.Bits, slices.Clone(info.Changed), [sha256.Size]byte{}})
	})
	return eng, rounds
}

// play runs the scenario to its end, writing a base record after round
// 1 and a delta after every later round. It stores each record's
// SHA-256 in its round and returns the chain after each record.
func (s steadyScenario) play(t *testing.T, eng *Engine, rounds *[]steadyRound) [][]byte {
	t.Helper()
	var chain bytes.Buffer
	prefixes := make([][]byte, 0, s.rounds)
	for r := 1; r <= s.rounds; r++ {
		eng.Step()
		at := chain.Len()
		var err error
		if r == 1 {
			err = WriteCheckpointChain(&chain, eng, nil)
		} else {
			err = AppendCheckpointDelta(&chain, eng, nil)
		}
		if err != nil {
			t.Fatalf("record at round %d: %v", r, err)
		}
		(*rounds)[r-1].Record = sha256.Sum256(chain.Bytes()[at:])
		prefixes = append(prefixes, chain.Bytes()[:chain.Len():chain.Len()])
	}
	return prefixes
}

func compareSteadyRounds(t *testing.T, what string, first int, got, want []steadyRound) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !slices.Equal(g.Outputs, w.Outputs) || g.Messages != w.Messages || g.Bits != w.Bits || !slices.Equal(g.Changed, w.Changed) || g.Record != w.Record {
			t.Fatalf("%s: round %d diverges: outputs equal %v, %d messages, %d bits, %d changed, record %x; want %d, %d, %d, %x",
				what, first+i, slices.Equal(g.Outputs, w.Outputs), g.Messages, g.Bits, len(g.Changed), g.Record[:4], w.Messages, w.Bits, len(w.Changed), w.Record[:4])
		}
	}
}

// TestSteadyMatchesOracle checks that DColor's steady fast path changes
// nothing but cost: round by round, the plain run's outputs, messages,
// bits, changed nodes and checkpoint record bytes (a base after round 1,
// a delta after every later round) equal those of the steady-blind run,
// and a plain run resumed from the blind run's chain halfway and near
// the end continues as the blind run does. Under -short, three
// scenarios run at two workers and resume only halfway.
func TestSteadyMatchesOracle(t *testing.T) {
	for _, s := range steadyScenarios() {
		if testing.Short() && !s.short {
			continue
		}
		for _, workers := range parkWorkers() {
			t.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(t *testing.T) {
				refEng, ref := s.run(workers, true)
				refChain := s.play(t, refEng, ref)
				eng, got := s.run(workers, false)
				s.play(t, eng, got)
				compareSteadyRounds(t, "plain", 1, *got, *ref)
				resumeAt := []int{s.rounds / 2, s.rounds - 5}
				if testing.Short() {
					resumeAt = resumeAt[:1]
				}
				for _, at := range resumeAt {
					eng2, resumed := s.run(workers, false)
					if err := ReadCheckpointChain(bytes.NewReader(refChain[at-1]), eng2, nil, nil); err != nil {
						t.Fatalf("resume at round %d: %v", at, err)
					}
					eng2.Run(s.rounds - at)
					want := slices.Clone((*ref)[at:])
					for i := range want {
						want[i].Record = [sha256.Size]byte{}
					}
					compareSteadyRounds(t, fmt.Sprintf("resumed from round %d", at), at+1, *resumed, want)
				}
			})
		}
	}
}

// steadyScript reads a fuzzed diff and wake schedule for an n-node
// universe into a trace of the given number of rounds. Each byte names
// two nodes by its nibbles: equal nibbles end the round; nibbles that
// name the same node modulo n wake it; any other byte toggles the edge
// between the two nodes, waking them if asleep. Rounds the script does
// not reach are steady.
func steadyScript(n, rounds int, script []byte) *Trace {
	tr := NewTrace(n)
	awake := make([]bool, n)
	edges := map[graph.EdgeKey]bool{}
	var prev *graph.Graph
	for range rounds {
		var wake []graph.NodeID
		wakeUp := func(v graph.NodeID) {
			if !awake[v] {
				awake[v] = true
				wake = append(wake, v)
			}
		}
		for len(script) > 0 {
			b := script[0]
			script = script[1:]
			hi, lo := b>>4, b&15
			if hi == lo {
				break
			}
			u, v := graph.NodeID(int(hi)%n), graph.NodeID(int(lo)%n)
			wakeUp(u)
			if u == v {
				continue
			}
			wakeUp(v)
			k := graph.MakeEdgeKey(u, v)
			if edges[k] {
				delete(edges, k)
			} else {
				edges[k] = true
			}
		}
		keys := make([]graph.EdgeKey, 0, len(edges))
		for k := range edges {
			keys = append(keys, k)
		}
		g := graph.FromEdges(n, keys)
		tr.Append(prev, g, wake)
		prev = g
	}
	return tr
}

// FuzzSteadyBlind replays fuzzed diff and wake schedules on up to 16
// nodes through combined coloring, plain and under steadyBlind, and
// requires the two runs to write the same checkpoint record bytes after
// every round: a base after round 1, then deltas. The runs last two
// DColor windows, so the pipelines fill and the rounds after the script
// ends are steady.
func FuzzSteadyBlind(f *testing.F) {
	f.Add(uint8(14), []byte{0x01, 0x12, 0x23, 0x34, 0x45, 0x00, 0x56, 0x67, 0x00, 0x00, 0x12, 0x00, 0x78, 0x89, 0x9a})
	f.Add(uint8(6), []byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x00, 0x11, 0x22, 0x01, 0x00, 0x33, 0x01, 0x24, 0x00, 0x35})
	f.Add(uint8(3), []byte{0x0a, 0x00, 0x1b, 0x00, 0x00, 0x00, 0x0a, 0x33, 0x2c})
	f.Fuzz(func(t *testing.T, size uint8, script []byte) {
		n := 2 + int(size)%15
		rounds := 2 * NewColoring(n).T1
		tr := steadyScript(n, rounds, script)
		var engs [2]*Engine
		var chains [2]bytes.Buffer
		for i, blind := range []bool{false, true} {
			var algo Algorithm = NewColoring(n)
			if blind {
				algo = steadyBlind{isolationBlind{algo}}
			}
			engs[i] = NewEngine(EngineConfig{N: n, Seed: 3, Workers: 1}, NewScripted(tr), algo)
		}
		for r := 1; r <= rounds; r++ {
			var recs [2][]byte
			for i, eng := range engs {
				eng.Step()
				at := chains[i].Len()
				var err error
				if r == 1 {
					err = WriteCheckpointChain(&chains[i], eng, nil)
				} else {
					err = AppendCheckpointDelta(&chains[i], eng, nil)
				}
				if err != nil {
					t.Fatalf("round %d: record: %v", r, err)
				}
				recs[i] = chains[i].Bytes()[at:]
			}
			if !bytes.Equal(recs[0], recs[1]) {
				t.Fatalf("round %d: the plain run's record (%d bytes) differs from the steady-blind run's (%d bytes)", r, len(recs[0]), len(recs[1]))
			}
		}
	})
}
