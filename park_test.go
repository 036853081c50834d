package dynlocal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dynlocal/internal/algos/coloring"
	"dynlocal/internal/algos/mis"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/core"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
)

// Concat parks a settled isolated node: it skips the node's instance
// callbacks while the node stays isolated and replays the skipped rounds
// when it gets an edge again or is checkpointed. The oracle for that is
// the same run with SAlg's core.Settler hidden (unsettledStatic), in
// which no node ever parks. A second run clears Ctx.Isolated before
// every Broadcast (isolationBlind): a node then parks at the end of an
// isolated round and unparks at the next Broadcast with nothing to
// replay. The tests below compare all three runs round by round.

// isolationBlind runs an algorithm with Ctx.Isolated cleared before every
// Broadcast. It forwards the optional interfaces the engine looks for,
// so the run differs from the unwrapped one only in what Broadcast sees.
type isolationBlind struct{ engine.Algorithm }

func (a isolationBlind) NewNode(v graph.NodeID) engine.NodeProc {
	return &blindNode{NodeProc: a.Algorithm.NewNode(v)}
}

func (a isolationBlind) MessageBits(m engine.SubMsg) int {
	if s, ok := a.Algorithm.(engine.BitSizer); ok {
		return s.MessageBits(m)
	}
	return 0
}

// blindNode clears a context hint before its node's callbacks: by
// default Ctx.Isolated before Broadcast, and with steady set Ctx.Steady
// before Process instead (steadyBlind).
type blindNode struct {
	engine.NodeProc
	steady bool
}

func (n *blindNode) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	if !n.steady {
		ctx.Isolated = false
	}
	return n.NodeProc.Broadcast(ctx, buf)
}

func (n *blindNode) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	if n.steady {
		ctx.Steady = false
	}
	n.NodeProc.Process(ctx, in, deg)
}

// Quiescent forwards the node's engine.Quiescer; a node without one never
// quiesces, as the engine assumes for it.
func (n *blindNode) Quiescent() bool {
	q, ok := n.NodeProc.(engine.Quiescer)
	return ok && q.Quiescent()
}

func (n *blindNode) SaveState(w *ckpt.Writer) { n.NodeProc.(ckpt.Stater).SaveState(w) }
func (n *blindNode) LoadState(r *ckpt.Reader) { n.NodeProc.(ckpt.Stater).LoadState(r) }

// unsettledStatic wraps a network-static algorithm so that its instances
// do not implement core.Settler, which keeps every Concat node unparked.
type unsettledStatic struct{ core.NetworkStaticAlgorithm }

func (a unsettledStatic) NewNode(v graph.NodeID) core.NodeInstance {
	return unsettled{a.NetworkStaticAlgorithm.NewNode(v)}
}

func (a unsettledStatic) MessageBits(m engine.SubMsg) int {
	return a.NetworkStaticAlgorithm.(core.MessageBitsFunc).MessageBits(m)
}

type unsettled struct{ core.NodeInstance }

func (i unsettled) SaveState(w *ckpt.Writer) { i.NodeInstance.(ckpt.Stater).SaveState(w) }
func (i unsettled) LoadState(r *ckpt.Reader) { i.NodeInstance.(ckpt.Stater).LoadState(r) }

// parkMode selects how a parking test run treats parking.
type parkMode int

const (
	parking   parkMode = iota // the algorithm as is
	blind                     // under isolationBlind
	neverPark                 // SAlg under unsettledStatic: the oracle
)

// parkRound is what the parking tests compare per round.
type parkRound struct {
	Outputs  []Value
	Messages int
	Bits     int64
	Changed  []NodeID
	Report   TDynamicReport
}

// parkScenario is one workload of the parking oracle test.
type parkScenario struct {
	name    string
	n       int
	rounds  int
	recAt   []int // chain records: a base, then deltas
	algo    func(n int) *Combined
	problem Problem
	adv     func() Adversary
	short   bool // kept under -short
}

func parkScenarios() []parkScenario {
	const nP2P, nChurn = 2048, 1024
	p2p := func() Adversary { return &P2PChurnAdversary{N: nP2P, Init: 256, JoinPerRound: 6, Seed: 23} }
	// G(n, 1/n) leaves most nodes isolated or in small components, and
	// 8+8 churn gives each node a new edge every ~64 rounds on average,
	// so nodes regain edges both soon after parking and long after T1.
	churn := func() Adversary { return NewChurn(GNP(nChurn, 1.0/nChurn, 31), 8, 8, 32) }
	var out []parkScenario
	for _, pr := range []struct {
		name    string
		algo    func(n int) *Combined
		problem Problem
	}{{"mis", NewMIS, MISProblem()}, {"coloring", NewColoring, ColoringProblem()}} {
		out = append(out,
			parkScenario{pr.name + "/p2p", nP2P, 120, []int{70, 75, 81}, pr.algo, pr.problem, p2p, pr.name == "mis"},
			parkScenario{pr.name + "/churn", nChurn, 150, []int{90, 96, 103}, pr.algo, pr.problem, churn, pr.name == "coloring"},
		)
	}
	// SMis and SColor keep no state that moves while they are settled,
	// so a replay that skipped SAlg would go unseen; agedStatic's round
	// count puts it into the checkpoint bytes.
	aged := func(n int) *Combined {
		return core.NewConcat(&mis.DMisFactory{N: n}, agedStatic{&mis.SMisFactory{N: n}}, n)
	}
	return append(out, parkScenario{"mis-aged/p2p", nP2P, 120, []int{70, 75, 81}, aged, MISProblem(), p2p, false})
}

// parkWorkers returns the worker counts the parking tests run at. Under
// -short, which the race-detector job uses, only the sharded count is
// kept: it is where a race between nodes could show.
func parkWorkers() []int {
	if testing.Short() {
		return []int{2}
	}
	return []int{1, 2}
}

// agedStatic wraps a network-static algorithm so that each instance
// counts the rounds it processed and checkpoints the count with its
// state.
type agedStatic struct{ core.NetworkStaticAlgorithm }

func (a agedStatic) NewNode(v graph.NodeID) core.NodeInstance {
	return &agedInstance{NodeInstance: a.NetworkStaticAlgorithm.NewNode(v)}
}

func (a agedStatic) MessageBits(m engine.SubMsg) int {
	return a.NetworkStaticAlgorithm.(core.MessageBitsFunc).MessageBits(m)
}

type agedInstance struct {
	core.NodeInstance
	rounds int
}

func (i *agedInstance) Process(ctx *engine.Ctx, in []engine.Incoming, deg int) {
	i.rounds++
	i.NodeInstance.Process(ctx, in, deg)
}

func (i *agedInstance) Settled() bool { return i.NodeInstance.(core.Settler).Settled() }

func (i *agedInstance) SaveState(w *ckpt.Writer) {
	w.Int(i.rounds)
	i.NodeInstance.(ckpt.Stater).SaveState(w)
}

func (i *agedInstance) LoadState(r *ckpt.Reader) {
	i.rounds = r.Int()
	i.NodeInstance.(ckpt.Stater).LoadState(r)
}

// run builds a fresh run of the scenario in the given mode. Every round
// is appended to the returned slice.
func (s parkScenario) run(workers int, mode parkMode) (*Engine, *TDynamicChecker, *[]parkRound) {
	c := s.algo(s.n)
	var algo Algorithm = c
	switch mode {
	case blind:
		algo = isolationBlind{c}
	case neverPark:
		algo = core.NewConcat(c.D, unsettledStatic{c.S}, s.n)
	}
	eng := NewEngine(EngineConfig{N: s.n, Seed: 41, Workers: workers}, s.adv(), algo)
	chk := NewTDynamicChecker(s.problem, c.T1, s.n)
	rounds := new([]parkRound)
	eng.OnRound(func(info *RoundInfo) {
		rep := chk.Feed(info.Delta())
		rep.PackingViolations = slices.Clone(rep.PackingViolations)
		rep.CoverViolations = slices.Clone(rep.CoverViolations)
		*rounds = append(*rounds, parkRound{slices.Clone(info.Outputs), info.Messages, info.Bits, slices.Clone(info.Changed), rep})
	})
	return eng, chk, rounds
}

// play runs the scenario to its end, writing the checkpoint chain at
// s.recAt, and returns the chain prefix after each record.
func (s parkScenario) play(t *testing.T, eng *Engine, chk *TDynamicChecker) [][]byte {
	t.Helper()
	var chain bytes.Buffer
	var prefixes [][]byte
	for r := 1; r <= s.rounds; r++ {
		eng.Step()
		if !slices.Contains(s.recAt, r) {
			continue
		}
		var err error
		if r == s.recAt[0] {
			err = WriteCheckpointChain(&chain, eng, chk)
		} else {
			err = AppendCheckpointDelta(&chain, eng, chk)
		}
		if err != nil {
			t.Fatalf("record at round %d: %v", r, err)
		}
		prefixes = append(prefixes, slices.Clone(chain.Bytes()))
	}
	return prefixes
}

func compareParkRounds(t *testing.T, what string, first int, got, want []parkRound) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rounds, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, w := got[i], want[i]
			t.Fatalf("%s: round %d diverges: %d messages, %d bits, %d changed, valid %v; want %d, %d, %d, %v",
				what, first+i, g.Messages, g.Bits, len(g.Changed), g.Report.Valid(), w.Messages, w.Bits, len(w.Changed), w.Report.Valid())
		}
	}
}

// TestParkingMatchesOracle checks that parking changes nothing but cost:
// round by round, the parking and isolation-blind runs' outputs,
// messages, bits, changed nodes and T-dynamic reports equal those of the
// run that never parks, the checkpoint chains written while nodes are
// parked have the same SHA-256, and a run resumed from each chain prefix
// continues as the oracle does. Under -short, two scenarios run without
// the isolation-blind run, and resume only from the last prefix.
func TestParkingMatchesOracle(t *testing.T) {
	for _, s := range parkScenarios() {
		if testing.Short() && !s.short {
			continue
		}
		for _, workers := range parkWorkers() {
			t.Run(fmt.Sprintf("%s/workers=%d", s.name, workers), func(t *testing.T) {
				refEng, refChk, ref := s.run(workers, neverPark)
				refChain := s.play(t, refEng, refChk)
				modes := []parkMode{blind, parking}
				if testing.Short() {
					modes = modes[1:]
				}
				for _, mode := range modes {
					eng, chk, got := s.run(workers, mode)
					chain := s.play(t, eng, chk)
					compareParkRounds(t, fmt.Sprintf("mode %d", mode), 1, *got, *ref)
					for i := range refChain {
						if sha256.Sum256(chain[i]) != sha256.Sum256(refChain[i]) {
							t.Fatalf("mode %d: chain after record %d (round %d): %d bytes, want the oracle's %d bytes", mode, i+1, s.recAt[i], len(chain[i]), len(refChain[i]))
						}
					}
					if checkerTotals(chk) != checkerTotals(refChk) {
						t.Fatalf("mode %d: checker totals %v, want the oracle's %v", mode, checkerTotals(chk), checkerTotals(refChk))
					}
				}
				for i, prefix := range refChain {
					if testing.Short() && i < len(refChain)-1 {
						continue
					}
					eng2, chk2, resumed := s.run(workers, parking)
					if err := ReadCheckpointChain(bytes.NewReader(prefix), eng2, chk2, nil); err != nil {
						t.Fatalf("prefix %d: restore: %v", i+1, err)
					}
					eng2.Run(s.rounds - s.recAt[i])
					compareParkRounds(t, fmt.Sprintf("resumed from round %d", s.recAt[i]), s.recAt[i]+1, *resumed, (*ref)[s.recAt[i]:])
				}
			})
		}
	}
}

// TestIsolationBlindDigests runs every standalone framework algorithm and
// the chained combiner plain and under isolationBlind: they do not read
// Ctx.Isolated, so both runs must agree round for round. This guards the
// contract that Broadcast reads the field only to skip work whose
// messages would reach no neighbor.
func TestIsolationBlindDigests(t *testing.T) {
	const n = 1024
	rounds := 80
	if testing.Short() {
		rounds = 40
	}
	algos := []struct {
		name string
		algo func() Algorithm
	}{
		{"dmis", func() Algorithm { return NewDMis(n) }},
		{"smis", func() Algorithm { return NewSMis(n) }},
		{"luby", func() Algorithm { return NewLuby(n) }},
		{"ghaffari", func() Algorithm { return mis.NewGhaffari(n) }},
		{"dcolor", func() Algorithm { return NewDColor(n) }},
		{"scolor", func() Algorithm { return NewSColor(n) }},
		{"basic", func() Algorithm { return NewBasicColoring(n) }},
		{"chained", func() Algorithm { return NewChainedMIS(n, 12) }},
	}
	digest := func(algo Algorithm, workers int) [sha256.Size]byte {
		adv := NewChurn(GNP(n, 1.0/n, 31), 8, 8, 32)
		eng := NewEngine(EngineConfig{N: n, Seed: 41, Workers: workers}, adv, algo)
		h := sha256.New()
		eng.OnRound(func(info *RoundInfo) {
			var b []byte
			b = binary.AppendVarint(b, int64(info.Messages))
			b = binary.AppendVarint(b, info.Bits)
			for _, v := range info.Changed {
				b = binary.AppendUvarint(b, uint64(v))
			}
			for _, o := range info.Outputs {
				b = binary.AppendVarint(b, int64(o))
			}
			h.Write(b)
		})
		eng.Run(rounds)
		return [sha256.Size]byte(h.Sum(nil))
	}
	for _, a := range algos {
		for _, workers := range parkWorkers() {
			if digest(a.algo(), workers) != digest(isolationBlind{a.algo()}, workers) {
				t.Errorf("%s, %d workers: the isolation-blind run's digest differs", a.name, workers)
			}
		}
	}
}

// countingDynamic wraps a DynamicAlgorithm so that each instance
// Broadcast is counted by its (round, node), and each replayed one — a
// call for a round the engine has already completed — by the length of
// the park it ends.
type countingDynamic struct {
	core.DynamicAlgorithm
	c *callCounts
}

type callCounts struct {
	now   int       // the last round the engine completed
	calls [][]int32 // calls[r][v]: instance Broadcasts of node v for round r
	// parks[v] maps an engine round to the number of rounds node v
	// replayed in it, the length of the park it left.
	parks map[graph.NodeID]map[int]int
}

func (d countingDynamic) NewNode(v graph.NodeID) core.NodeInstance {
	return &countingInstance{d.DynamicAlgorithm.NewNode(v), d.c}
}

func (d countingDynamic) NewNodes(v graph.NodeID, k int, dst []core.NodeInstance) []core.NodeInstance {
	n := len(dst)
	dst = d.DynamicAlgorithm.NewNodes(v, k, dst)
	for i := n; i < len(dst); i++ {
		dst[i] = &countingInstance{dst[i], d.c}
	}
	return dst
}

type countingInstance struct {
	core.NodeInstance
	c *callCounts
}

func (i *countingInstance) Broadcast(ctx *engine.Ctx, buf []engine.SubMsg) []engine.SubMsg {
	c := i.c
	c.calls[ctx.Round][ctx.Node]++
	if ctx.Round <= c.now {
		m := c.parks[ctx.Node]
		if m == nil {
			m = map[int]int{}
			c.parks[ctx.Node] = m
		}
		m[c.now+1] = max(m[c.now+1], c.now+1-ctx.Round)
	}
	return i.NodeInstance.Broadcast(ctx, buf)
}

func (i *countingInstance) Settled() bool {
	s, ok := i.NodeInstance.(core.Settler)
	return ok && s.Settled()
}

// countIsolatedCalls runs a combined algorithm with counted DAlg
// instances at one worker and returns the instance Broadcasts made for
// isolated nodes — departed peers, under P2P churn — and the counts.
func countIsolatedCalls(t *testing.T, n, rounds int, d core.DynamicAlgorithm, s core.NetworkStaticAlgorithm, adv Adversary, blind bool) (int64, *callCounts) {
	t.Helper()
	c := &callCounts{calls: make([][]int32, rounds+1), parks: map[graph.NodeID]map[int]int{}}
	for r := range c.calls {
		c.calls[r] = make([]int32, n)
	}
	var algo Algorithm = core.NewConcat(countingDynamic{d, c}, s, n)
	if blind {
		algo = isolationBlind{algo}
	}
	eng := NewEngine(EngineConfig{N: n, Seed: 41, Workers: 1}, adv, algo)
	deg := make([]int, n)
	awake := make([]bool, n)
	var isolated int64
	eng.OnRound(func(info *RoundInfo) {
		for _, v := range info.Wake {
			awake[v] = true
		}
		for _, k := range info.EdgeAdds {
			u, v := k.Nodes()
			deg[u]++
			deg[v]++
		}
		for _, k := range info.EdgeRemoves {
			u, v := k.Nodes()
			deg[u]--
			deg[v]--
		}
		c.now = info.Round
	})
	for r := 1; r <= rounds; r++ {
		eng.Step()
		for v := range n {
			if awake[v] && deg[v] == 0 {
				isolated += int64(c.calls[r][v])
			}
		}
	}
	return isolated, c
}

// TestParkingEngages checks that parking actually skips work: under P2P
// churn, the DAlg instances of isolated (departed) peers broadcast at
// least 80% less often than in the isolation-blind run; and under edge
// churn over G(n, 1/n), nodes regain edges both after parks shorter than
// T1 and after parks longer than T1, so the oracle test replays both.
func TestParkingEngages(t *testing.T) {
	if testing.Short() {
		t.Skip("counts skipped work at one worker; runs without -short")
	}
	const n, rounds = 2048, 120
	type pair struct {
		name string
		d    func() core.DynamicAlgorithm
		s    func() core.NetworkStaticAlgorithm
	}
	for _, p := range []pair{
		{"mis", func() core.DynamicAlgorithm { return &mis.DMisFactory{N: n} }, func() core.NetworkStaticAlgorithm { return &mis.SMisFactory{N: n} }},
		{"coloring", func() core.DynamicAlgorithm { return &coloring.DColorFactory{N: n} }, func() core.NetworkStaticAlgorithm { return &coloring.SColorFactory{N: n} }},
	} {
		t.Run(p.name, func(t *testing.T) {
			p2p := func() Adversary { return &P2PChurnAdversary{N: n, Init: 256, JoinPerRound: 6, Seed: 23} }
			blind, _ := countIsolatedCalls(t, n, rounds, p.d(), p.s(), p2p(), true)
			parked, _ := countIsolatedCalls(t, n, rounds, p.d(), p.s(), p2p(), false)
			t.Logf("instance broadcasts of isolated peers: %d parked, %d blind", parked, blind)
			if blind == 0 || parked*5 > blind {
				t.Fatalf("parking skips too little: %d instance broadcasts of isolated peers, %d without parking; want at most a fifth", parked, blind)
			}

			t1 := p.d().WindowSize(n / 2)
			churn := NewChurn(GNP(n/2, 2.0/float64(n), 31), 8, 8, 32)
			_, c := countIsolatedCalls(t, n/2, 150, p.d(), p.s(), churn, false)
			short, long := 0, 0
			for _, m := range c.parks {
				for _, length := range m {
					if length < t1 {
						short++
					} else {
						long++
					}
				}
			}
			t.Logf("revived parks: %d shorter than T1 = %d, %d longer", short, t1, long)
			if short == 0 || long == 0 {
				t.Fatalf("revived parks: %d shorter than T1 = %d, %d not; want both", short, t1, long)
			}
		})
	}
}
