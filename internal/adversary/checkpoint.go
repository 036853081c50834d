package adversary

import (
	"errors"
	"fmt"
	"slices"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
)

// Checkpointer is implemented by adversaries whose position in the
// topology sequence can be serialized into a checkpoint stream and
// restored onto a freshly constructed adversary with the same
// configuration, after which the restored adversary emits exactly the
// steps the original would have. Round-pure adversaries (Static and
// Alternator — their Step is a pure function of the round) need no
// Checkpointer: the engine restores them by round number alone. The
// replay adversary, ScriptedStream, records how many rounds it consumed.
//
// The randomized adversaries draw from per-round PRF streams
// (advStream), so their "position" is exactly their mutable state —
// no RNG cursor needs saving beyond what prf.Stream.Cursor offers to
// adversaries that hold streams across rounds (none here do).
type Checkpointer interface {
	SaveState(w *ckpt.Writer)
	LoadState(r *ckpt.Reader)
}

// DeltaCheckpointer is optionally implemented by Checkpointers whose
// state change between two checkpoint records can be encoded — or
// re-derived — far more compactly than a full SaveState rewrite. The
// engine's delta records call SaveDelta instead of SaveState when the
// adversary implements it, passing the parent record's round and the
// current round; LoadDelta must advance an adversary holding the exact
// parent state to the exact `to` state, bit-identically to having
// stepped through those rounds live.
//
// The randomized adversaries here draw every round from the stateless
// per-round PRF (advStream), so their evolution over (from, to] is a
// pure function of configuration and parent state: their delta carries
// no edge data at all and LoadDelta fast-forwards by replaying the
// draws — the same idiom ScriptedStream.LoadState uses for traces.
// Record integrity (that the delta really was built on this parent) is
// the chain's job: the engine validates sequence, parent fingerprint
// and parent round before the adversary section is reached.
type DeltaCheckpointer interface {
	Checkpointer
	SaveDelta(w *ckpt.Writer, from, to int)
	LoadDelta(r *ckpt.Reader, from, to int)
}

// EdgeMirror is implemented by adversaries that keep their own copy of
// the live edge set, the one their next Step diffs against. A restore
// loads that copy from the adversary section and the engine's topology
// from the topology sections, so the engine checks the two against each
// other once a checkpoint chain is read: a record that makes them
// disagree fails the read instead of making a later Step add a present
// edge or remove an absent one.
type EdgeMirror interface {
	// CheckEdges returns an error unless the adversary's live edges are
	// exactly the m edges for which has reports true.
	CheckEdges(m int, has func(graph.EdgeKey) bool) error
}

// Section tags guarding the adversary section of a checkpoint stream.
const (
	tagChurn           uint64 = 0x71
	tagEdgeMarkov      uint64 = 0x72
	tagP2PChurn        uint64 = 0x73
	tagScriptedStream  uint64 = 0x74
	tagWakeup          uint64 = 0x76
	tagChurnDelta      uint64 = 0x77
	tagEdgeMarkovDelta uint64 = 0x78
	tagLocalStatic     uint64 = 0x79
	// tagLocalStaticMirror is the retired LocalStatic section, which
	// carried an inner-topology mirror; LoadState refuses it.
	tagLocalStaticMirror uint64 = 0x75
)

// maxDeltaSpan bounds the round distance a single delta record may
// fast-forward, so a corrupt or hostile header cannot turn LoadDelta
// into an unbounded replay loop.
const maxDeltaSpan = 1 << 20

// checkDeltaSpan validates a fast-forward range handed to LoadDelta.
func checkDeltaSpan(r *ckpt.Reader, from, to int) bool {
	if from < 0 || to < from || to-from > maxDeltaSpan {
		r.Fail(fmt.Errorf("adversary: delta fast-forward span (%d, %d] invalid", from, to))
		return false
	}
	return true
}

// SaveState implements Checkpointer. The live edge-key list is written
// verbatim: its swap-delete order feeds removeRandom's Intn indexing,
// so preserving it exactly is what makes the resumed draw sequence
// bit-identical.
func (c *Churn) SaveState(w *ckpt.Writer) {
	w.Section(tagChurn)
	w.Bool(c.started)
	if !c.started {
		return
	}
	w.Int(len(c.keys))
	for _, k := range c.keys {
		w.Uvarint(uint64(k))
	}
}

// LoadState implements Checkpointer. Every key must name a canonical
// edge {u < v} inside the universe and appear once: keyIdx maps each key
// to its position, so a duplicate would leave the list and the index
// disagreeing, and a later swap-delete would remove the wrong edge.
func (c *Churn) LoadState(r *ckpt.Reader) {
	r.Section(tagChurn)
	if !r.Bool() {
		return
	}
	c.n = c.Base.N()
	n := r.Count(c.n * (c.n - 1) / 2)
	if r.Err() != nil {
		return
	}
	// The record replaces the base edge set, so it is not loaded first.
	c.started = true
	c.keys = slices.Grow(c.keys[:0], n)
	c.keyIdx.Clear()
	c.keyIdx.Reserve(n)
	for i := 0; i < n; i++ {
		k := graph.EdgeKey(r.Uvarint())
		if r.Err() != nil {
			return
		}
		switch x, y := k.Nodes(); {
		case x == y:
			r.Fail(fmt.Errorf("adversary: checkpoint churn edge %v is a self-loop", k))
			return
		case x < 0 || x > y || int(y) >= c.n:
			r.Fail(fmt.Errorf("adversary: checkpoint churn edge %v outside universe [0,%d)", k, c.n))
			return
		}
		if c.keyIdx.Has(k) {
			r.Fail(fmt.Errorf("adversary: checkpoint churn edge %v listed twice", k))
			return
		}
		c.keys = append(c.keys, k)
		c.keyIdx.Put(k, i)
	}
}

// CheckEdges implements EdgeMirror. The key list holds no duplicates
// (LoadState refuses them and Step never adds one), so it names exactly
// the topology's edges when it has m keys and each is an edge.
func (c *Churn) CheckEdges(m int, has func(graph.EdgeKey) bool) error {
	if len(c.keys) != m {
		return fmt.Errorf("adversary: churn holds %d edges, the topology %d", len(c.keys), m)
	}
	for _, k := range c.keys {
		if !has(k) {
			return fmt.Errorf("adversary: churn edge %v is not in the topology", k)
		}
	}
	return nil
}

// SaveDelta implements DeltaCheckpointer. Churn's per-round mutations
// are drawn from advStream(Seed, round) against the live key list, so
// the state at `to` is fully determined by the state at `from`: the
// delta carries only its section tag and LoadDelta re-derives the rest.
func (c *Churn) SaveDelta(w *ckpt.Writer, from, to int) {
	w.Section(tagChurnDelta)
}

// LoadDelta implements DeltaCheckpointer: replay the (from, to] draw
// sequence against the parent state. The replay mutates keys/keyIdx
// through the same removeRandom/addRandom calls Step makes, so the
// swap-delete order — which feeds every future Intn index — comes out
// bit-identical to a live run.
func (c *Churn) LoadDelta(r *ckpt.Reader, from, to int) {
	r.Section(tagChurnDelta)
	if r.Err() != nil || !checkDeltaSpan(r, from, to) {
		return
	}
	for rd := from + 1; rd <= to; rd++ {
		if !c.started {
			// The first step emits the base edge set without drawing.
			c.init()
			continue
		}
		s := advStream(c.Seed, rd)
		for i := 0; i < c.Del; i++ {
			c.removeRandom(&s)
		}
		for i := 0; i < c.Add; i++ {
			c.addRandom(&s)
		}
	}
}

// SaveState implements Checkpointer. The footprint key list is
// reconstructed from the immutable footprint graph; only the on/off
// mirror is state.
func (m *EdgeMarkov) SaveState(w *ckpt.Writer) {
	w.Section(tagEdgeMarkov)
	w.Bool(m.started)
	if !m.started {
		return
	}
	w.Int(len(m.on))
	for _, b := range m.on {
		w.Bool(b)
	}
}

// LoadState implements Checkpointer.
func (m *EdgeMarkov) LoadState(r *ckpt.Reader) {
	r.Section(tagEdgeMarkov)
	if !r.Bool() {
		return
	}
	if !m.started {
		m.init()
	}
	n := r.Count(len(m.on))
	if r.Err() != nil {
		return
	}
	if n != len(m.on) {
		r.Fail(fmt.Errorf("adversary: checkpoint has %d footprint edges, adversary has %d", n, len(m.on)))
		return
	}
	for i := range m.on {
		m.on[i] = r.Bool()
	}
}

// CheckEdges implements EdgeMirror: the footprint edges marked on must be
// exactly the topology's m edges.
func (m *EdgeMarkov) CheckEdges(edges int, has func(graph.EdgeKey) bool) error {
	on := 0
	for i, k := range m.keys {
		if !m.on[i] {
			continue
		}
		if !has(k) {
			return fmt.Errorf("adversary: edge-Markov edge %v is on but not in the topology", k)
		}
		on++
	}
	if on != edges {
		return fmt.Errorf("adversary: edge-Markov has %d edges on, the topology %d", on, edges)
	}
	return nil
}

// SaveDelta implements DeltaCheckpointer. Like Churn, the edge-Markov
// flips over (from, to] are a pure function of (Seed, round) and the
// parent on/off mirror — the delta body is empty.
func (m *EdgeMarkov) SaveDelta(w *ckpt.Writer, from, to int) {
	w.Section(tagEdgeMarkovDelta)
}

// LoadDelta implements DeltaCheckpointer: replay the coin flips for the
// skipped rounds. Each round draws exactly one Bernoulli per footprint
// edge in slice order, matching Step's draw sequence.
func (m *EdgeMarkov) LoadDelta(r *ckpt.Reader, from, to int) {
	r.Section(tagEdgeMarkovDelta)
	if r.Err() != nil || !checkDeltaSpan(r, from, to) {
		return
	}
	for rd := from + 1; rd <= to; rd++ {
		if !m.started {
			m.init()
			continue
		}
		s := advStream(m.Seed, rd)
		for i, isOn := range m.on {
			if isOn {
				if s.Bernoulli(m.POff) {
					m.on[i] = false
				}
			} else if s.Bernoulli(m.POn) {
				m.on[i] = true
			}
		}
	}
}

// SaveState implements Checkpointer. Order-bearing slices (live list,
// per-node adjacency) are written verbatim — the live list's
// swap-delete order feeds Intn peer selection — while the round-keyed
// maps are written with sorted keys for deterministic bytes.
func (p *P2PChurn) SaveState(w *ckpt.Writer) {
	w.Section(tagP2PChurn)
	w.Bool(p.started)
	if !p.started {
		return
	}
	w.Varint(int64(p.nextID))
	w.Int(len(p.live))
	for _, v := range p.live {
		w.Varint(int64(v))
	}
	// Adjacency in live order: every nbrs key is a live node.
	for _, v := range p.live {
		row := p.nbrs[v]
		w.Int(len(row))
		for _, u := range row {
			w.Varint(int64(u))
		}
	}
	saveRoundBuckets(w, p.sessEnd)
	saveRoundCounts(w, p.rejoins)
}

// LoadState implements Checkpointer. Ids come from the bump allocator,
// so the next id must lie in [0, N] and every live id below it, once.
// Each adjacency row must name only other live peers, each once, and the
// rows must be symmetric: departID swap-deletes a departing peer from
// every neighbor's row, and a row that does not name it back would index
// out of range.
func (p *P2PChurn) LoadState(r *ckpt.Reader) {
	r.Section(tagP2PChurn)
	if !r.Bool() {
		return
	}
	if !p.started {
		p.init()
	}
	next := r.Varint()
	if r.Err() != nil {
		return
	}
	if next < 0 || next > int64(p.N) {
		r.Fail(fmt.Errorf("adversary: checkpoint P2P next id %d outside [0,%d]", next, p.N))
		return
	}
	p.nextID = graph.NodeID(next)
	n := r.Count(int(next))
	if r.Err() != nil {
		return
	}
	p.live = make([]graph.NodeID, n)
	p.liveIdx = make(map[graph.NodeID]int, n)
	for i := range p.live {
		v := r.Varint()
		if r.Err() != nil {
			return
		}
		if _, dup := p.liveIdx[graph.NodeID(v)]; dup || v < 0 || v >= next {
			r.Fail(fmt.Errorf("adversary: checkpoint P2P live id %d repeated or outside [0,%d)", v, next))
			return
		}
		p.live[i] = graph.NodeID(v)
		p.liveIdx[graph.NodeID(v)] = i
	}
	p.nbrs = make(map[graph.NodeID][]graph.NodeID, n)
	// arcs holds v<<32|u for every entry u of v's row, sorted below to
	// find duplicate entries and entries whose reverse is missing.
	var arcs []uint64
	for _, v := range p.live {
		deg := r.Count(n)
		if r.Err() != nil {
			return
		}
		row := make([]graph.NodeID, deg)
		for i := range row {
			u := r.Varint()
			if r.Err() != nil {
				return
			}
			if _, live := p.liveIdx[graph.NodeID(u)]; !live || u < 0 || u >= next || graph.NodeID(u) == v {
				r.Fail(fmt.Errorf("adversary: checkpoint P2P row of %d names %d, not another live peer", v, u))
				return
			}
			row[i] = graph.NodeID(u)
			arcs = append(arcs, uint64(v)<<32|uint64(u))
		}
		p.nbrs[v] = row
	}
	slices.Sort(arcs)
	for i, a := range arcs {
		v, u := a>>32, a&0xffffffff
		if i > 0 && arcs[i-1] == a {
			r.Fail(fmt.Errorf("adversary: checkpoint P2P row of %d names %d twice", v, u))
			return
		}
		if _, ok := slices.BinarySearch(arcs, u<<32|v); !ok {
			r.Fail(fmt.Errorf("adversary: checkpoint P2P row of %d names %d, whose row does not name it back", v, u))
			return
		}
	}
	p.sessEnd = loadRoundBuckets(r, int(next))
	p.rejoins = loadRoundCounts(r, int(next))
}

// CheckEdges implements EdgeMirror: the edges of the adjacency rows
// (symmetric and duplicate-free, as LoadState checks and Step keeps
// them) must be exactly the topology's m edges.
func (p *P2PChurn) CheckEdges(m int, has func(graph.EdgeKey) bool) error {
	edges := 0
	for _, v := range p.live {
		for _, u := range p.nbrs[v] {
			if u < v {
				continue
			}
			if k := graph.MakeEdgeKey(v, u); !has(k) {
				return fmt.Errorf("adversary: P2P edge %v is not in the topology", k)
			}
			edges++
		}
	}
	if edges != m {
		return fmt.Errorf("adversary: P2P churn holds %d edges, the topology %d", edges, m)
	}
	return nil
}

// saveRoundBuckets serializes a round-keyed id-bucket map with sorted
// round keys (bucket contents verbatim — their order is append order
// and feeds departure processing).
func saveRoundBuckets(w *ckpt.Writer, m map[int][]graph.NodeID) {
	rounds := make([]int, 0, len(m))
	for r := range m {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	w.Int(len(rounds))
	for _, rd := range rounds {
		w.Int(rd)
		ids := m[rd]
		w.Int(len(ids))
		for _, v := range ids {
			w.Varint(int64(v))
		}
	}
}

// loadRoundBuckets reads a map saved by saveRoundBuckets. Each of the
// ids ever allocated, fewer than next, sits in at most one bucket, so
// next bounds both the bucket count and each bucket's size.
func loadRoundBuckets(r *ckpt.Reader, next int) map[int][]graph.NodeID {
	n := r.Count(next)
	if r.Err() != nil {
		return nil
	}
	m := make(map[int][]graph.NodeID, n)
	for i := 0; i < n; i++ {
		rd := r.Int()
		cnt := r.Count(next)
		if r.Err() != nil {
			return nil
		}
		ids := make([]graph.NodeID, cnt)
		for j := range ids {
			ids[j] = graph.NodeID(r.Varint())
		}
		m[rd] = ids
	}
	return m
}

// saveRoundCounts serializes a round-keyed counter map with sorted
// round keys.
func saveRoundCounts(w *ckpt.Writer, m map[int]int) {
	rounds := make([]int, 0, len(m))
	for r := range m {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	w.Int(len(rounds))
	for _, rd := range rounds {
		w.Int(rd)
		w.Int(m[rd])
	}
}

// loadRoundCounts reads a map saved by saveRoundCounts. Each departure
// of an id below next owes at most one rejoin, so next bounds the number
// of rounds owed one.
func loadRoundCounts(r *ckpt.Reader, next int) map[int]int {
	n := r.Count(next)
	if r.Err() != nil {
		return nil
	}
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		rd := r.Int()
		m[rd] = r.Int()
	}
	return m
}

// SaveState implements Checkpointer. Only the consumed-round count is
// state; LoadState fast-forwards a freshly opened source by that many
// rounds (a decoder re-validates the prefix and rebuilds its present-set
// as a side effect; a Trace cursor just advances). A stream that has
// already surfaced a decode error refuses to checkpoint — resuming a
// failed replay would silently freeze the topology.
func (s *ScriptedStream) SaveState(w *ckpt.Writer) {
	w.Section(tagScriptedStream)
	if s.err != nil {
		w.Fail(fmt.Errorf("adversary: cannot checkpoint errored trace replay: %w", s.err))
		return
	}
	w.Int(s.consumed)
	w.Bool(s.done)
}

// LoadState implements Checkpointer. The receiver must wrap a freshly
// opened source positioned at its first round, or — when applying a
// checkpoint chain, whose delta records each carry the adversary section
// — be the same receiver an earlier record already restored: the
// fast-forward is incremental from the rounds already consumed, so
// repeated loads advance the source monotonically instead of
// compounding.
func (s *ScriptedStream) LoadState(r *ckpt.Reader) {
	r.Section(tagScriptedStream)
	consumed := r.Int()
	done := r.Bool()
	if r.Err() != nil {
		return
	}
	// s.consumed is never negative, so this also refuses a negative
	// count.
	if consumed < s.consumed {
		r.Fail(fmt.Errorf("adversary: checkpoint has %d consumed trace rounds, replay already at %d — cannot rewind a stream", consumed, s.consumed))
		return
	}
	for i := s.consumed; i < consumed; i++ {
		if _, _, _, err := s.src.NextDeltas(); err != nil {
			r.Fail(fmt.Errorf("adversary: trace ended at round %d/%d while resuming: %w", i, consumed, err))
			return
		}
	}
	s.consumed = consumed
	s.done = done
}

// saveInner delegates the wrapped adversary's state with a presence
// flag, so a restore onto a differently-wrapped adversary fails cleanly.
func saveInner(w *ckpt.Writer, inner Adversary) {
	ck, ok := inner.(Checkpointer)
	w.Bool(ok)
	if ok {
		ck.SaveState(w)
	}
}

// loadInner restores the wrapped adversary's state saved by saveInner.
func loadInner(r *ckpt.Reader, inner Adversary) {
	has := r.Bool()
	if r.Err() != nil {
		return
	}
	ck, ok := inner.(Checkpointer)
	if has != ok {
		r.Fail(fmt.Errorf("adversary: checkpoint inner-state presence %v, wrapped adversary %T checkpointer %v", has, inner, ok))
		return
	}
	if has {
		ck.LoadState(r)
	}
}

// SaveState implements Checkpointer. The frozen zone and its base edges
// are derived from configuration (Base, Protected, Alpha) and rebuilt on
// the first Step after a restore, so the section carries only the inner
// adversary's state.
func (l *LocalStatic) SaveState(w *ckpt.Writer) {
	w.Section(tagLocalStatic)
	saveInner(w, l.Inner)
}

// LoadState implements Checkpointer. A section in the retired format,
// which carried an inner-topology mirror, is refused by name.
func (l *LocalStatic) LoadState(r *ckpt.Reader) {
	switch tag := r.Uvarint(); {
	case r.Err() != nil:
		return
	case tag == tagLocalStaticMirror:
		r.Fail(fmt.Errorf("adversary: checkpoint LocalStatic section has the retired edge-mirror format (tag %#x); write the checkpoint again", tag))
		return
	case tag != tagLocalStatic:
		r.Fail(fmt.Errorf("adversary: checkpoint section tag %#x, want LocalStatic's %#x", tag, tagLocalStatic))
		return
	}
	loadInner(r, l.Inner)
}

// SaveState implements Checkpointer. The awake set is a pure function of
// (Schedule, lastRound) and is rebuilt on restore; the inner topology —
// which the wake-time edges are read from — is written as its sorted
// edge-key list. The inner adversary's state is delegated.
func (w *Wakeup) SaveState(cw *ckpt.Writer) {
	cw.Section(tagWakeup)
	cw.Bool(w.awake != nil)
	if w.awake != nil {
		cw.Int(w.lastRound)
		cw.Int(w.inner.M())
		for x := range w.inner.N() {
			for _, y := range w.inner.Neighbors(graph.NodeID(x)) {
				if graph.NodeID(x) < y {
					cw.Uvarint(uint64(graph.MakeEdgeKey(graph.NodeID(x), y)))
				}
			}
		}
	}
	saveInner(cw, w.Inner)
}

// LoadState implements Checkpointer. Safe for the repeated loads of a
// chain restore: awake set and inner topology are rebuilt from scratch
// each time.
func (w *Wakeup) LoadState(r *ckpt.Reader) {
	r.Section(tagWakeup)
	started := r.Bool()
	if r.Err() != nil {
		return
	}
	if started {
		n := len(w.Schedule)
		lastRound := r.Int()
		nKeys := r.Count(n * (n - 1) / 2)
		if r.Err() != nil {
			return
		}
		keys := make([]graph.EdgeKey, nKeys)
		for i := range keys {
			keys[i] = graph.EdgeKey(r.Uvarint())
		}
		if r.Err() != nil {
			return
		}
		w.inner = graph.NewDynAdj(n)
		if err := w.inner.Apply(keys, nil); err != nil {
			r.Fail(fmt.Errorf("adversary: checkpoint wakeup inner topology %w", err))
			return
		}
		w.lastRound = lastRound
		w.awake = make([]bool, n)
		for id, wr := range w.Schedule {
			if wr >= 1 && wr <= lastRound {
				w.awake[id] = true
			}
		}
	}
	loadInner(r, w.Inner)
	// Step applies the inner adversary's next diff to the wakeup's copy
	// of its topology (empty before the first step), so an inner
	// adversary that keeps its own edges must name the same ones.
	if mirror, ok := w.Inner.(EdgeMirror); ok && r.Err() == nil {
		m, has := 0, func(graph.EdgeKey) bool { return false }
		if started {
			m, has = w.inner.M(), w.inner.Has
		}
		if err := mirror.CheckEdges(m, has); err != nil {
			r.Fail(fmt.Errorf("adversary: checkpoint wakeup inner topology disagrees with the inner adversary: %w", err))
		}
	}
}

// ErrNotCheckpointable is the checkpoint error of the adversaries whose
// hidden state a resume cannot carry (the adaptive probes and the Graphs
// adapter): their Checkpointer methods refuse, so a checkpoint writer
// fails with it instead of writing a record that would resume a
// different run.
var ErrNotCheckpointable = errors.New("adversary: adversary state is not checkpointable")

// SaveState implements Checkpointer by refusing: the injected-edge set
// and the inner-topology mirror are hidden state that decides future
// injections.
func (ci *ConflictInjector) SaveState(w *ckpt.Writer) {
	w.Fail(fmt.Errorf("%w: ConflictInjector", ErrNotCheckpointable))
}

// LoadState implements Checkpointer by refusing, like SaveState.
func (ci *ConflictInjector) LoadState(r *ckpt.Reader) {
	r.Fail(fmt.Errorf("%w: ConflictInjector", ErrNotCheckpointable))
}

// SaveState implements Checkpointer by refusing: the burned-edge set
// steers every later round.
func (a *LubyStaller) SaveState(w *ckpt.Writer) {
	w.Fail(fmt.Errorf("%w: LubyStaller", ErrNotCheckpointable))
}

// LoadState implements Checkpointer by refusing, like SaveState.
func (a *LubyStaller) LoadState(r *ckpt.Reader) {
	r.Fail(fmt.Errorf("%w: LubyStaller", ErrNotCheckpointable))
}

// SaveState implements Checkpointer by refusing: the previous graph,
// which the next diff runs against, is not part of the record.
func (a *Graphs) SaveState(w *ckpt.Writer) {
	w.Fail(fmt.Errorf("%w: Graphs", ErrNotCheckpointable))
}

// LoadState implements Checkpointer by refusing, like SaveState.
func (a *Graphs) LoadState(r *ckpt.Reader) {
	r.Fail(fmt.Errorf("%w: Graphs", ErrNotCheckpointable))
}

// Interface conformance. P2PChurn, ScriptedStream and the wrappers stay
// full-rewrite Checkpointers: P2P session state is O(live nodes) anyway,
// trace replay already fast-forwards incrementally inside LoadState,
// Wakeup's inner-topology list is what dominates its record, and
// LocalStatic's section holds only its inner's state.
var (
	_ Checkpointer      = (*Churn)(nil)
	_ Checkpointer      = (*EdgeMarkov)(nil)
	_ Checkpointer      = (*P2PChurn)(nil)
	_ Checkpointer      = (*ScriptedStream)(nil)
	_ Checkpointer      = (*LocalStatic)(nil)
	_ Checkpointer      = (*Wakeup)(nil)
	_ Checkpointer      = (*ConflictInjector)(nil)
	_ Checkpointer      = (*LubyStaller)(nil)
	_ Checkpointer      = (*Graphs)(nil)
	_ DeltaCheckpointer = (*Churn)(nil)
	_ DeltaCheckpointer = (*EdgeMarkov)(nil)
	_ EdgeMirror        = (*Churn)(nil)
	_ EdgeMirror        = (*EdgeMarkov)(nil)
	_ EdgeMirror        = (*P2PChurn)(nil)
)
