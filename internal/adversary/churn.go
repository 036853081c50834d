package adversary

import (
	"slices"

	"dynlocal/internal/graph"
	"dynlocal/internal/prf"
)

// Churn is the constant-turnover adversary motivating the paper: starting
// from a base graph it deletes Del random existing edges and inserts Add
// random fresh edges in every round, forever. There is no recovery period —
// algorithms must give guarantees while this is happening.
//
// Churn is delta-native: each round's random insertions and deletions are
// the emitted edge diff (round 1 emits the base edge set), so no per-round
// graph is materialized and downstream cost scales with Add+Del, not with
// the graph size.
type Churn struct {
	Base *graph.Graph
	Add  int
	Del  int
	Seed uint64

	n       int
	keys    []graph.EdgeKey
	keyIdx  graph.EdgeTable[int] // position of each live key in keys
	addBuf  []graph.EdgeKey
	remBuf  []graph.EdgeKey
	started bool
}

func (c *Churn) init() {
	c.n = c.Base.N()
	base := c.Base.EdgeKeys()
	c.keys = slices.Clone(base)
	c.keyIdx.Reserve(len(base))
	for i, k := range base {
		c.keyIdx.Put(k, i)
	}
	c.started = true
}

func (c *Churn) removeRandom(s *prf.Stream) (graph.EdgeKey, bool) {
	if len(c.keys) == 0 {
		return 0, false
	}
	i := s.Intn(len(c.keys))
	k := c.keys[i]
	last := len(c.keys) - 1
	c.keys[i] = c.keys[last]
	c.keyIdx.Put(c.keys[i], i)
	c.keys = c.keys[:last]
	c.keyIdx.Delete(k)
	return k, true
}

func (c *Churn) addRandom(s *prf.Stream) (graph.EdgeKey, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		u := graph.NodeID(s.Intn(c.n))
		v := graph.NodeID(s.Intn(c.n))
		if u == v {
			continue
		}
		k := graph.MakeEdgeKey(u, v)
		if c.keyIdx.Has(k) {
			continue
		}
		c.keyIdx.Put(k, len(c.keys))
		c.keys = append(c.keys, k)
		return k, true
	}
	return 0, false
}

// Step implements Adversary. Rounds after the first return delta steps
// whose add/remove buffers are reused on the next call.
func (c *Churn) Step(v View) Step {
	if !c.started {
		// The base edge set is the first step's diff from the empty G_0
		// (round 1 unless a record of a fresh Churn was restored later);
		// the immutable base graph's key view needs no copy.
		c.init()
		return Step{Wake: AllNodes(c.n), EdgeAdds: c.Base.EdgeKeys()}
	}
	s := advStream(c.Seed, v.Round())
	removes := c.remBuf[:0]
	adds := c.addBuf[:0]
	for i := 0; i < c.Del; i++ {
		if k, ok := c.removeRandom(&s); ok {
			removes = append(removes, k)
		}
	}
	for i := 0; i < c.Add; i++ {
		if k, ok := c.addRandom(&s); ok {
			adds = append(adds, k)
		}
	}
	slices.Sort(adds)
	slices.Sort(removes)
	// An edge deleted and re-inserted in the same round is a net no-op:
	// cancel the pair so the diff is an exact set difference.
	adds, removes = cancelCommon(adds, removes)
	c.addBuf, c.remBuf = adds, removes
	return Step{EdgeAdds: adds, EdgeRemoves: removes}
}

// cancelCommon removes keys present in both sorted lists, in place.
func cancelCommon(a, b []graph.EdgeKey) ([]graph.EdgeKey, []graph.EdgeKey) {
	i, j := 0, 0
	wa, wb := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			a[wa] = a[i]
			wa++
			i++
		case a[i] > b[j]:
			b[wb] = b[j]
			wb++
			j++
		default:
			i++
			j++
		}
	}
	wa += copy(a[wa:], a[i:])
	wb += copy(b[wb:], b[j:])
	return a[:wa], b[:wb]
}

// EdgeMarkov flips the edges of a footprint graph independently each round:
// a present edge disappears with probability POff, an absent footprint edge
// appears with probability POn. This is the standard edge-Markov
// dynamic-graph process restricted to a footprint, an oblivious adversary
// by construction (it never reads the view's outputs).
//
// EdgeMarkov is the canonical delta-native adversary: the coin flips are
// the topology diff. Each round emits exactly the edges that flipped on
// and off (in footprint order, which is canonical key order), so a round
// costs O(|footprint|) coin draws and O(flips) downstream.
type EdgeMarkov struct {
	Footprint *graph.Graph
	POn       float64
	POff      float64
	Seed      uint64

	// on[i] mirrors footprint edge keys[i]; iterating the slice (not a
	// map) keeps the per-round coin order deterministic and allocation-free.
	keys    []graph.EdgeKey
	on      []bool
	addBuf  []graph.EdgeKey
	remBuf  []graph.EdgeKey
	started bool
}

func (m *EdgeMarkov) init() {
	m.keys = m.Footprint.Edges()
	m.on = make([]bool, len(m.keys))
	for i := range m.on {
		m.on[i] = true
	}
	m.started = true
}

// Step implements Adversary. Rounds after the first return delta steps
// whose add/remove buffers are reused on the next call.
func (m *EdgeMarkov) Step(v View) Step {
	if !m.started {
		// Like Churn, the first step plays the whole footprint.
		m.init()
		return Step{Wake: AllNodes(m.Footprint.N()), EdgeAdds: m.keys}
	}
	s := advStream(m.Seed, v.Round())
	adds := m.addBuf[:0]
	removes := m.remBuf[:0]
	for i, isOn := range m.on {
		if isOn {
			if s.Bernoulli(m.POff) {
				m.on[i] = false
				removes = append(removes, m.keys[i])
			}
		} else if s.Bernoulli(m.POn) {
			m.on[i] = true
			adds = append(adds, m.keys[i])
		}
	}
	m.addBuf, m.remBuf = adds, removes
	// keys is sorted (Edges order), so the flip subsequences are too.
	return Step{EdgeAdds: adds, EdgeRemoves: removes}
}
