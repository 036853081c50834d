// Command frequency demonstrates the paper's canonical coloring
// application (Section 1.2): assigning frequencies (time slots) to mobile
// wireless nodes so that interfering nodes — those within radio range —
// use different slots.
//
// Nodes move through the unit square with a random-waypoint mobility
// model; every round the communication graph is the unit-disk graph of
// the current positions, so edges appear and disappear constantly. The
// combined coloring algorithm (Corollary 1.2) maintains a
// (degree+1)-coloring where "degree" counts the distinct neighbors seen
// during the window: interference with nodes that were in range
// throughout the window is zero, fresh conflicts are resolved within T
// rounds, and parked (locally static) regions keep their assignment
// frozen.
//
// Usage:
//
//	go run ./examples/frequency [-n 256] [-rounds 200] [-speed 0.004]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dynlocal"
)

// waypointMobility drives nodes toward random waypoints; a fraction of
// the nodes is parked (never moves), giving the locally-static regions
// the stability guarantee applies to.
type waypointMobility struct {
	pts      []dynlocal.Point
	dst      []dynlocal.Point
	parked   []bool
	speed    float64
	radius   float64
	seed     uint64
	rngState uint64
}

func (m *waypointMobility) rand() float64 {
	// xorshift*: good enough for waypoint selection, kept internal to the
	// example so the library's PRF streams stay untouched.
	m.rngState ^= m.rngState >> 12
	m.rngState ^= m.rngState << 25
	m.rngState ^= m.rngState >> 27
	return float64(m.rngState*0x2545F4914F6CDD1D>>11) / (1 << 53)
}

// next moves the nodes and returns the round's unit-disk graph; a
// GraphsAdversary turns the graph sequence into the engine's edge diffs.
func (m *waypointMobility) next(v dynlocal.AdversaryView) (*dynlocal.Graph, []dynlocal.NodeID) {
	if v.Round() > 1 {
		for i := range m.pts {
			if m.parked[i] {
				continue
			}
			dx := m.dst[i].X - m.pts[i].X
			dy := m.dst[i].Y - m.pts[i].Y
			dist := dx*dx + dy*dy
			if dist < m.speed*m.speed {
				m.dst[i] = dynlocal.Point{X: m.rand(), Y: m.rand()}
				continue
			}
			norm := m.speed / sqrt(dist)
			m.pts[i].X += dx * norm
			m.pts[i].Y += dy * norm
		}
	}
	var wake []dynlocal.NodeID
	if v.Round() == 1 {
		wake = dynlocal.AllNodes(len(m.pts))
	}
	return dynlocal.Geometric(m.pts, m.radius), wake
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 24; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func main() {
	n := flag.Int("n", 256, "number of radios")
	rounds := flag.Int("rounds", 200, "rounds to simulate")
	speed := flag.Float64("speed", 0.004, "movement per round (unit square)")
	radius := flag.Float64("radius", 0.08, "interference radius")
	parkedFrac := flag.Float64("parked", 0.3, "fraction of parked radios")
	seed := flag.Uint64("seed", 7, "random seed")
	flag.Parse()

	mob := &waypointMobility{
		pts:      dynlocal.RandomPoints(*n, *seed),
		dst:      dynlocal.RandomPoints(*n, *seed+1),
		parked:   make([]bool, *n),
		speed:    *speed,
		radius:   *radius,
		rngState: *seed*0x9E3779B9 + 1,
	}
	for i := 0; i < int(float64(*n)**parkedFrac); i++ {
		mob.parked[i] = true
	}

	algo := dynlocal.NewColoring(*n)
	adv := &dynlocal.GraphsAdversary{Next: mob.next}
	eng := dynlocal.NewEngine(dynlocal.EngineConfig{N: *n, Seed: *seed}, adv, algo)
	check := dynlocal.NewTDynamicChecker(dynlocal.ColoringProblem(), algo.T1, *n)

	fmt.Printf("frequency assignment: %d radios, range %.2f, %.0f%% parked, window T=%d\n\n",
		*n, *radius, *parkedFrac*100, algo.T1)
	fmt.Printf("%6s %8s %10s %12s %12s\n",
		"round", "slots", "assigned", "staleConf", "freshConf")

	invalid := 0
	var maxSlot dynlocal.Value
	eng.OnRound(func(info *dynlocal.RoundInfo) {
		rep := check.Feed(info.Delta())
		if !rep.Valid() {
			invalid++
		}
		if info.Round%20 != 0 {
			return
		}
		// Conflicts on current graph, split by edge age: conflicts on
		// intersection edges ("stale", must be zero) vs fresh edges
		// (transient, resolved within T rounds).
		stale, fresh := 0, 0
		w := check.Window()
		assigned := 0
		maxSlot = 0
		for v, out := range info.Outputs {
			if out == dynlocal.Bot {
				continue
			}
			assigned++
			if out > maxSlot {
				maxSlot = out
			}
			for _, u := range info.Graph().Neighbors(dynlocal.NodeID(v)) {
				if dynlocal.NodeID(v) < u && info.Outputs[u] == out {
					if w.InIntersection(dynlocal.NodeID(v), u) {
						stale++
					} else {
						fresh++
					}
				}
			}
		}
		fmt.Printf("%6d %8d %10d %12d %12d\n", info.Round, maxSlot, assigned, stale, fresh)
	})
	eng.Run(*rounds)

	fmt.Println()
	if invalid != 0 {
		log.Printf("FAILED: %d rounds violated the windowed interference guarantee", invalid)
		os.Exit(1)
	}
	fmt.Println("OK: zero interference among stable (windowed) links in every round;")
	fmt.Println("    fresh conflicts only on links younger than the window, resolved within T rounds")
}
