package main

import (
	"dynlocal"
	"dynlocal/internal/algos/mis"
)

// workload is one benchmark scenario: a problem, an algorithm and an
// adversary, sized so that one session — a fresh run of Rounds rounds
// plus its checks — takes a few seconds on a 2-CPU host.
type workload struct {
	Name string
	// N is the node universe.
	N int
	// Rounds is the number of live rounds per session.
	Rounds int
	// CkptEvery > 0 writes a checkpoint record every CkptEvery rounds,
	// starting a new chain with a full base every FullEvery records;
	// the session then resumes the last chain and replays the trace.
	CkptEvery, FullEvery int
	// Combined marks a Theorem 1.1 algorithm: every round must verify,
	// so an invalid round is a failed operation. For a standalone
	// algorithm the verdicts are simulated statistics.
	Combined bool

	// P2P settings (p2p-mis only).
	P2PInit, P2PJoin int
	// Churn settings (churn workloads): edges added and deleted per round.
	Add, Del int

	newAlgo func(n int) (dynlocal.Algorithm, dynlocal.Problem, int)
}

// newAdversary builds the workload's adversary from the seed. Every call
// returns a fresh adversary in its initial state, so a resumed run can
// be rebuilt with the same constructor, as checkpoint restores require.
func (w *workload) newAdversary(seed uint64) dynlocal.Adversary {
	if w.P2PInit > 0 {
		return &dynlocal.P2PChurnAdversary{
			N: w.N, Init: w.P2PInit, JoinPerRound: w.P2PJoin,
			Seed: mix(seed, 2),
		}
	}
	base := dynlocal.GNP(w.N, 8.0/float64(w.N), mix(seed, 1))
	return dynlocal.NewChurn(base, w.Add, w.Del, mix(seed, 2))
}

func combinedColoring(n int) (dynlocal.Algorithm, dynlocal.Problem, int) {
	a := dynlocal.NewColoring(n)
	return a, dynlocal.ColoringProblem(), a.T1
}

func combinedMIS(n int) (dynlocal.Algorithm, dynlocal.Problem, int) {
	a := dynlocal.NewMIS(n)
	return a, dynlocal.MISProblem(), a.T1
}

func standaloneDMis(n int) (dynlocal.Algorithm, dynlocal.Problem, int) {
	return dynlocal.NewDMis(n), dynlocal.MISProblem(), mis.DefaultMISWindow(n)
}

// workloads returns the benchmark's workloads. tiny shrinks each to a
// few hundred nodes and rounds just past its window, for the smoke test.
func workloads(tiny bool) []*workload {
	ws := []*workload{
		// Every node talks every round: cost is per message, and the
		// algos layer dominates.
		{
			Name:     "churn-coloring",
			N:        4096,
			Rounds:   44,
			Combined: true,
			Add:      32, Del: 32,
			newAlgo: combinedColoring,
		},
		// Departed peers stay awake, so cost grows with awake-ever nodes
		// and joins rather than with messages.
		{
			Name:     "p2p-mis",
			N:        65536,
			Rounds:   80,
			Combined: true,
			P2PInit:  2048, P2PJoin: 8,
			newAlgo: combinedMIS,
		},
		// The only quiescing algorithm, recorded and checkpointed: the
		// write-and-read side of the same engine. The round after each
		// checkpoint record runs with cold caches, so one round in eight
		// is slower than the rest, and the first few rounds and the one
		// where the checker's window first fills are slower still. Over
		// 228 rounds the p90 falls in the middle of the post-checkpoint
		// rounds, where a few preempted rounds barely move it. The last
		// chain (a base at round 200 and three deltas) leaves four rounds
		// to resume.
		{
			Name:      "ckpt-dmis",
			N:         16384,
			Rounds:    228,
			CkptEvery: 8, FullEvery: 8,
			Add: 16, Del: 16,
			newAlgo: standaloneDMis,
		},
	}
	if tiny {
		for _, w := range ws {
			switch {
			case w.P2PInit > 0:
				w.N, w.P2PInit, w.Rounds = 4096, 64, 56
			case w.Combined:
				w.N, w.Rounds = 256, 32
			default:
				w.N, w.Rounds, w.CkptEvery, w.FullEvery = 512, 46, 4, 4
			}
		}
	}
	return ws
}

func findWorkload(name string, tiny bool) *workload {
	for _, w := range workloads(tiny) {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// mix derives an independent 64-bit seed for one input stream from the
// benchmark seed (splitmix64 finalizer).
func mix(seed, stream uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
