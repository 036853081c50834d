// Package experiments implements the reproduction of every quantitative
// claim in the paper as the experiment battery E01–E15:
//
//	E01 DColor convergence (O(log n) shape)     E09 baselines vs churn sweep
//	E02 conflict-edge resolution time           E10 window-size sweep
//	E03 locally-static stability (Thm 1.1(2))   E11 window edge counts
//	E04 coloring progress probability           E12 message bits (poly log n remark)
//	E05 MIS edge decay (Lemma 5.2)              E13 clairvoyant adversary
//	E06 DMis convergence                        E14 async wake-up schedules
//	E07 SMis static-ball decision (Lemma 5.6)   E15 engine scaling
//
// Each experiment is a pure function from Params to a structured result;
// cmd/experiments renders them as tables and the root bench harness
// re-runs them under testing.B (see ARCHITECTURE.md for the claim↔code
// map). All randomness is seeded, so every reported number is
// reproducible; every guarantee-shaped cell is routed through the
// checkers of internal/verify, so the tables are machine-checked, not
// just measured.
package experiments

import (
	"dynlocal/internal/adversary"
	"dynlocal/internal/engine"
	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
	"dynlocal/internal/problems"
	"dynlocal/internal/stats"
)

// Params tunes experiment scale.
type Params struct {
	// Quick shrinks node counts and trial counts (used by benches and
	// smoke tests).
	Quick bool
	// Seed keys all workloads and algorithm randomness.
	Seed uint64
	// N overrides the node count of single-size experiments (0 = default).
	N int
	// NSweep overrides the node-count sweep of sweep experiments
	// (nil = default).
	NSweep []int
	// Trials overrides the per-cell trial count (0 = default).
	Trials int
}

func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 0xD15EA5E
	}
	return p.Seed
}

// nSweep returns the node-count sweep for convergence experiments.
func (p Params) nSweep() []int {
	if p.NSweep != nil {
		return p.NSweep
	}
	if p.Quick {
		return []int{128, 256, 512}
	}
	return []int{128, 256, 512, 1024, 2048, 4096}
}

func (p Params) trials() int {
	if p.Trials > 0 {
		return p.Trials
	}
	if p.Quick {
		return 3
	}
	return 7
}

// size resolves a single-size experiment's node count, honoring the N
// override.
func (p Params) size(full, quick int) int {
	if p.N > 0 {
		return p.N
	}
	if p.Quick {
		return quick
	}
	return full
}

func workloadStream(seed uint64) *prf.Stream {
	return prf.NewStream(seed, 0, 0, prf.PurposeWorkload)
}

func allDecided(out []problems.Value) bool {
	for _, v := range out {
		if v == problems.Bot {
			return false
		}
	}
	return true
}

// AdversaryKind selects a workload adversary in sweeps.
type AdversaryKind string

// Adversary kinds used across experiments.
const (
	AdvStatic AdversaryKind = "static"
	AdvChurn  AdversaryKind = "churn"
	AdvMarkov AdversaryKind = "edge-markov"
	AdvFlip   AdversaryKind = "alternator"
)

// makeAdversary builds the named adversary over a base graph whose churn
// intensity scales mildly with n.
func makeAdversary(kind AdversaryKind, base *graph.Graph, seed uint64) adversary.Adversary {
	n := base.N()
	switch kind {
	case AdvStatic:
		return adversary.Static{G: base}
	case AdvChurn:
		k := n / 32
		if k < 2 {
			k = 2
		}
		return &adversary.Churn{Base: base, Add: k, Del: k, Seed: seed}
	case AdvMarkov:
		return &adversary.EdgeMarkov{Footprint: base, POn: 0.05, POff: 0.05, Seed: seed}
	case AdvFlip:
		s := workloadStream(seed)
		other := graph.GNP(n, float64(base.M())*2/(float64(n)*float64(n-1)), s)
		return &adversary.Alternator{A: base, B: graph.Union(base, other), Period: 3}
	default:
		panic("unknown adversary kind: " + string(kind))
	}
}

// ConvergencePoint is one (n, adversary) cell of a convergence sweep.
type ConvergencePoint struct {
	N         int
	Adversary AdversaryKind
	Rounds    stats.Summary // rounds until all nodes produced output
	Window    int           // default window T(n) for reference
}

// ConvergenceResult is the outcome of E1/E6.
type ConvergenceResult struct {
	Algorithm string
	Points    []ConvergencePoint
	// Fit is rounds vs log₂ n for the static adversary: the paper's
	// O(log n) claim shows as a good linear fit in log n.
	Fit stats.LinearFit
}

// runConvergence measures rounds-to-all-output for an algorithm factory.
func runConvergence(p Params, name string, algoFor func(n int) engine.Algorithm,
	window func(n int) int, kinds []AdversaryKind) ConvergenceResult {
	res := ConvergenceResult{Algorithm: name}
	var fitNs []int
	var fitRounds []float64
	for _, kind := range kinds {
		for _, n := range p.nSweep() {
			var rounds []float64
			for trial := 0; trial < p.trials(); trial++ {
				seed := p.seed() + uint64(trial)*1000 + uint64(n)
				base := graph.GNP(n, 8.0/float64(n), workloadStream(seed))
				adv := makeAdversary(kind, base, seed+1)
				e := engine.New(engine.Config{N: n, Seed: seed + 2}, adv, algoFor(n))
				r, ok := e.RunUntil(4*window(n), func(info *engine.RoundInfo) bool {
					return allDecided(info.Outputs)
				})
				if !ok {
					r = 4 * window(n) // censored; shows up as an outlier
				}
				rounds = append(rounds, float64(r))
			}
			res.Points = append(res.Points, ConvergencePoint{
				N: n, Adversary: kind, Rounds: stats.Summarize(rounds), Window: window(n),
			})
			if kind == AdvStatic {
				fitNs = append(fitNs, n)
				fitRounds = append(fitRounds, stats.Mean(rounds))
			}
		}
	}
	res.Fit = stats.FitLogN(fitNs, fitRounds)
	return res
}
