package engine

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
	"dynlocal/internal/problems"
)

// Checkpoint plane: a checkpoint is a chain of records (ckpt chain
// container), and every record lists what differs from its parent. The
// parent of a delta is the last record noted with NoteCheckpoint; the
// parent of a base (sequence number 1) is the freshly constructed engine,
// where every node sleeps, every output is Bot, the graph is empty and
// the active list is empty. A plain checkpoint is a one-record chain.
// Bases and deltas share one writer, one reader and one validation path;
// a base only adds the configuration block and always writes the
// adversary's full state.
//
// A restored engine is bit-identical to the uninterrupted one — outputs,
// accounting, RoundInfo deltas and checker verdicts — for every worker
// count (worker count is deliberately NOT part of a record: the
// determinism contract makes it a free parameter, and the fault-injection
// suite resumes under different counts on purpose).
//
// A record's engine sections:
//
//   - header: sequence number, parent CRC-32, parent round and round, so
//     a delta applied to the wrong base, out of order, or over a torn
//     parent fails before touching any state; a base adds algorithm
//     name, N, Seed, OutputLag, the retired dense flag (always false)
//     and the input vector, validated against the restoring engine;
//   - topology: the net edge adds and removes since the parent;
//   - nodes: every node whose wake round, quiescence counter or
//     ckpt.Stater payload may differ from the parent;
//   - active set: the sorted active list, only when it moved;
//   - snapshot ring: the slots a future round may still read through
//     DelayedOutputs or diff against, as the columns of the nodes whose
//     output differs from the parent's latest slot;
//   - adversary: its state via adversary.Checkpointer, with a presence
//     flag so round-pure adversaries (Static, Alternator) restore by
//     round number alone, and a delta/full bit. The trace replay
//     adversary (ScriptedStream, over a decoder or a Trace's cursor)
//     writes its consumed-round count; a record without adversary state
//     is refused onto it, naming its type.
//
// Not captured, by design: outboxes, inboxes, per-worker accounting
// cells, changed/drop shards and the RoundInfo ring are per-round
// scratch fully rebuilt by the next Step (the quiescence grace path
// empties a node's outbox before any cross-round read could see it);
// message/bit accounting is per-round and carries no cross-round state.
//
// The dirty tracking that feeds deltas is enabled by the first
// NoteCheckpoint call and costs O(active + changes) marks per round;
// runs that never write chains never pay it. A base reads the live
// lists instead and never fills the dirty sets.
const ckptMagic = "DLCK2"

// ErrRetiredFormat is the restore error for records of the retired
// format, whose full and delta records had separate layouts.
var ErrRetiredFormat = errors.New("engine: checkpoint uses the retired DLCK1/DLCKD1 record format; rewrite it from a fresh run")

// Section tags guarding the engine sections of a record (core
// processors use 0x5x, algorithms 0x6x, adversaries 0x7x).
const (
	tagHeader    uint64 = 0x41
	tagTopology  uint64 = 0x42
	tagNodes     uint64 = 0x43
	tagActive    uint64 = 0x44
	tagSnaps     uint64 = 0x45
	tagAdversary uint64 = 0x46
)

// ArenaAlgorithm is optionally implemented by algorithms whose node
// states can be carved from the restore arena attached to the checkpoint
// reader (ckpt.AllocStruct/AllocSlice). Restores check for it and fall
// back to NewNode; implementations must return a node in the same state
// NewNode would (LoadState is called right after either way).
type ArenaAlgorithm interface {
	NewNodeArena(v graph.NodeID, r *ckpt.Reader) NodeProc
}

// ChainPart is a component checkpointed after the engine sections of
// every record — the T-dynamic checker. SaveDelta and LoadDelta take the
// record kind from the engine header; NoteCheckpoint is called for every
// persisted or restored record, and CheckTopology and then FinishChain
// once after the last restored one.
type ChainPart interface {
	SaveDelta(w *ckpt.Writer, base bool)
	LoadDelta(r *ckpt.Reader, base bool)
	NoteCheckpoint()
	// CheckTopology returns an error unless the part's own copy of the
	// round graph holds exactly the m edges hasEdge reports, and its
	// woken nodes are exactly those awake reports.
	CheckTopology(m int, hasEdge func(graph.EdgeKey) bool, awake func(graph.NodeID) bool) error
	FinishChain() error
}

// newRestoredNode constructs the node state for a restore, through the
// arena when the algorithm supports it.
func (e *Engine) newRestoredNode(r *ckpt.Reader, v graph.NodeID) NodeProc {
	if aa, ok := e.algo.(ArenaAlgorithm); ok {
		return aa.NewNodeArena(v, r)
	}
	return e.algo.NewNode(v)
}

// NoteCheckpoint records that a record capturing the engine's current
// state was durably persisted (or restored), with sum its CRC-32
// fingerprint (ckpt.Writer.Sum32 after writing, ckpt.Reader.Sum32 after
// restoring) and base whether it heads a new chain. It resets the dirty
// tracking so the next delta diffs against exactly this record, enabling
// the tracking on first call. Never note a record whose write failed:
// the chain's tail is then still the previous record, and the
// accumulated marks keep diffing against it.
func (e *Engine) NoteCheckpoint(base bool, sum uint32) {
	if !e.ckptTrack {
		e.ckptTrack = true
		e.dirtyNode = make([]bool, e.cfg.N)
		e.dirtyOut = make([]bool, e.cfg.N)
	} else {
		for _, v := range e.dirtyList {
			e.dirtyNode[v] = false
		}
		for _, v := range e.dirtyOutList {
			e.dirtyOut[v] = false
		}
		e.topDirty.Clear()
	}
	e.dirtyList = e.dirtyList[:0]
	e.dirtyOutList = e.dirtyOutList[:0]
	e.activeDirty = false
	if base {
		e.ckptSeq = 0
	}
	e.ckptSeq++
	e.ckptSum = sum
	e.ckptRound = e.round
}

// ChainSeq returns the number of records noted in the current chain (0
// when no chain is active). cmd/dynsim uses it to decide when to rebase.
func (e *Engine) ChainSeq() uint64 { return e.ckptSeq }

// writeIDList delta-encodes a strictly ascending list of node ids or
// edge keys.
func writeIDList[T graph.NodeID | graph.EdgeKey](w *ckpt.Writer, ids []T) {
	w.Int(len(ids))
	var prev T
	for i, id := range ids {
		if i == 0 {
			w.Uvarint(uint64(id))
		} else {
			w.Uvarint(uint64(id - prev))
		}
		prev = id
	}
}

// readNodeList reads a node list written by writeIDList, validating
// strict ascent and that every node is awake. The slice is carved from
// the reader's arena.
func (e *Engine) readNodeList(r *ckpt.Reader, what string) []graph.NodeID {
	n := r.Count(e.cfg.N)
	if r.Err() != nil {
		return nil
	}
	ids := ckpt.AllocSlice[graph.NodeID](r, n)
	for i := range ids {
		d := r.Uvarint()
		if r.Err() != nil {
			return nil
		}
		if i > 0 && d == 0 {
			r.Fail(fmt.Errorf("engine: checkpoint %s list not strictly ascending", what))
			return nil
		}
		v := d
		if i > 0 {
			v += uint64(ids[i-1])
		}
		if d >= uint64(e.cfg.N) || v >= uint64(e.cfg.N) || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: checkpoint %s list entry %d out of range or asleep", what, i))
			return nil
		}
		ids[i] = graph.NodeID(v)
	}
	return ids
}

// readEdgeList reads an edge-key list written by writeIDList, refusing
// duplicates and overflow; the keys are checked where the diff is
// applied. The slice is carved from the reader's arena.
func readEdgeList(r *ckpt.Reader, n int, what string) []graph.EdgeKey {
	nKeys := r.Count(n * (n - 1) / 2)
	if r.Err() != nil {
		return nil
	}
	keys := ckpt.AllocSlice[graph.EdgeKey](r, nKeys)
	for i := range keys {
		k := graph.EdgeKey(r.Uvarint())
		if r.Err() != nil {
			return nil
		}
		if i > 0 {
			if k == 0 || k+keys[i-1] < k {
				r.Fail(fmt.Errorf("engine: checkpoint %s edge keys not strictly ascending", what))
				return nil
			}
			k += keys[i-1]
		}
		keys[i] = k
	}
	return keys
}

// snapWindow returns the first round whose snapshot a record at round
// taken over a parent at pround carries, and the slot count: the rounds
// from max(pround+1, round-lag, 1) through round.
func (e *Engine) snapWindow(pround, round int) (first, nSlots int) {
	first = max(pround+1, round-e.lag, 1)
	return first, max(round-first+1, 0)
}

// CheckpointTo writes the engine sections of one record into an open
// checkpoint stream: a base (the difference from the fresh engine) or a
// delta against the last record passed to NoteCheckpoint. A delta fails
// if no record has been noted. It must be called at a round barrier
// (never from an observer or algorithm callback); the engine is left
// untouched, and the caller notes the record once it is persisted.
func (e *Engine) CheckpointTo(w *ckpt.Writer, base bool) {
	if !base && !e.ckptTrack {
		w.Fail(errors.New("engine: delta record without a base — write a base record and note it first"))
		return
	}
	seq, psum, pround := uint64(1), uint32(0), 0
	if !base {
		seq, psum, pround = e.ckptSeq+1, e.ckptSum, e.ckptRound
	}
	w.String(ckptMagic)
	w.Section(tagHeader)
	w.Uvarint(seq)
	w.Uvarint(uint64(psum))
	w.Int(pround)
	w.Int(e.round)
	if base {
		w.String(e.algo.Name())
		w.Int(e.cfg.N)
		w.Uvarint(e.cfg.Seed)
		w.Int(e.lag)
		w.Bool(false) // the retired dense walk's flag (readConfig)
		w.Bool(e.cfg.Input != nil)
		for _, val := range e.cfg.Input {
			w.Varint(int64(val))
		}
	}

	// What differs from the parent: the dirty marks for a delta; for a
	// base, the live graph, the awake nodes and the columns holding a
	// non-Bot output in some carried slot.
	first, nSlots := e.snapWindow(pround, e.round)
	nodes, cols := e.dirtyList, e.dirtyOutList
	var adds, rems []graph.EdgeKey
	activeMoved := e.activeDirty
	if base {
		adds = e.adj.Graph().EdgeKeys()
		nodes = e.baseList(func(v int) bool { return e.awake[v] })
		activeMoved = len(e.activeList) > 0
	} else {
		adds, rems = e.topologyDiff()
		slices.Sort(nodes)
		slices.Sort(cols)
	}

	w.Section(tagTopology)
	writeIDList(w, adds)
	writeIDList(w, rems)

	w.Section(tagNodes)
	w.Int(len(nodes))
	for _, v := range nodes {
		w.Varint(int64(v))
		w.Int(int(e.wakeRnd[v]))
		w.Varint(int64(e.quiet[v]))
		st, ok := e.states[v].(ckpt.Stater)
		if !ok {
			w.Fail(fmt.Errorf("engine: algorithm %q node state %T does not support checkpointing", e.algo.Name(), e.states[v]))
			return
		}
		st.SaveState(w)
	}

	w.Section(tagActive)
	w.Bool(activeMoved)
	if activeMoved {
		writeIDList(w, e.activeList)
	}

	// Snapshot ring: per carried slot, only the listed columns — every
	// other node's entry equals the parent's latest slot (Bot for a
	// base), which the restore stages and copies.
	if base {
		cols = e.baseList(func(v int) bool {
			for rr := first; rr < first+nSlots; rr++ {
				if e.snaps[rr%len(e.snaps)][v] != problems.Bot {
					return true
				}
			}
			return false
		})
	}
	w.Section(tagSnaps)
	writeIDList(w, cols)
	w.Int(nSlots)
	for rr := first; rr < first+nSlots; rr++ {
		snap := e.snaps[rr%len(e.snaps)]
		for _, v := range cols {
			w.Varint(int64(snap[v]))
		}
	}

	// Adversary state: for a delta, delta-capable adversaries (Churn,
	// EdgeMarkov) encode only their (pround, round] evolution; a base and
	// every other adversary write the full SaveState. The discriminator
	// bit makes a restore onto a differently-capable reconstruction fail
	// loudly instead of misparsing the section.
	w.Section(tagAdversary)
	w.Bool(e.advCk != nil)
	if e.advCk != nil {
		isDelta := e.advDelta != nil && !base
		w.Bool(isDelta)
		if isDelta {
			e.advDelta.SaveDelta(w, pround, e.round)
		} else {
			e.advCk.SaveState(w)
		}
	}
}

// baseList returns the ascending nodes v for which keep(v) holds, in the
// engine's record scratch (valid until the next call). A base lists its
// nodes from the live state this way, leaving the dirty sets alone.
func (e *Engine) baseList(keep func(v int) bool) []graph.NodeID {
	list := e.ckptScratch[:0]
	for v := 0; v < e.cfg.N; v++ {
		if keep(v) {
			list = append(list, graph.NodeID(v))
		}
	}
	e.ckptScratch = list
	return list
}

// topologyDiff returns the net edge diff since the last noted record
// as ascending adds and removes, in the engine's record scratch (valid
// until the next call).
func (e *Engine) topologyDiff() (adds, rems []graph.EdgeKey) {
	e.diffKeys, e.diffTmp = e.topDirty.AppendSortedKeys(e.diffKeys[:0], e.diffTmp)
	adds, rems = e.diffAdds[:0], e.diffRems[:0]
	for _, k := range e.diffKeys {
		if added, _ := e.topDirty.Get(k); added {
			adds = append(adds, k)
		} else {
			rems = append(rems, k)
		}
	}
	e.diffAdds, e.diffRems = adds, rems
	return adds, rems
}

// RestoreFrom reads the engine sections of one record from an open
// checkpoint stream and reports whether it was a base. A base restores
// only into a freshly constructed engine with the same configuration,
// algorithm and adversary construction; a delta only onto the engine
// state of its parent record (the last one noted). Header linkage and
// every field are validated before the topology is installed. Errors —
// corruption as well as configuration mismatches — accumulate on r; the
// engine must be treated as unusable if r.Err() is non-nil afterwards.
func (e *Engine) RestoreFrom(r *ckpt.Reader) (base bool) {
	magic := r.String()
	if r.Err() != nil {
		return false
	}
	switch magic {
	case ckptMagic:
	case "DLCK1", "DLCKD1":
		r.Fail(fmt.Errorf("%w (record magic %q)", ErrRetiredFormat, magic))
		return false
	default:
		r.Fail(fmt.Errorf("engine: not a checkpoint record (magic %q)", magic))
		return false
	}

	r.Section(tagHeader)
	seq := r.Uvarint()
	psumRaw := r.Uvarint()
	pround := r.Int()
	round := r.Int()
	if r.Err() != nil {
		return false
	}
	base = seq == 1
	switch {
	case base && (e.round != 0 || e.ckptTrack):
		r.Fail(fmt.Errorf("engine: a base record restores only into a fresh engine, this one is at round %d, chain record %d", e.round, e.ckptSeq))
	case base && (psumRaw != 0 || pround != 0):
		r.Fail(fmt.Errorf("engine: base record names a parent (fingerprint %#x, round %d)", psumRaw, pround))
	case !base && !e.ckptTrack:
		r.Fail(errors.New("engine: delta record without a restored base record"))
	case !base && seq != e.ckptSeq+1:
		r.Fail(fmt.Errorf("engine: delta sequence %d, chain is at %d — record reordered or missing", seq, e.ckptSeq))
	case !base && psumRaw != uint64(e.ckptSum):
		r.Fail(fmt.Errorf("engine: delta parent fingerprint %#x does not match chain tail %#x — wrong base", psumRaw, e.ckptSum))
	case !base && (pround != e.round || pround != e.ckptRound):
		r.Fail(fmt.Errorf("engine: delta parent round %d, engine at %d (chain tail %d)", pround, e.round, e.ckptRound))
	case round < pround:
		r.Fail(fmt.Errorf("engine: record round %d precedes parent round %d", round, pround))
	case round > math.MaxInt32:
		r.Fail(fmt.Errorf("engine: record round %d exceeds the engine's int32 per-node rounds", round))
	}
	if r.Err() != nil {
		return false
	}
	if base {
		e.readConfig(r)
	}
	n := e.cfg.N

	r.Section(tagTopology)
	adds := readEdgeList(r, n, "add")
	rems := readEdgeList(r, n, "remove")
	if r.Err() != nil {
		return false
	}
	if base && len(rems) > 0 {
		r.Fail(fmt.Errorf("engine: base record removes %d edges from the empty graph", len(rems)))
		return false
	}

	r.Section(tagNodes)
	nNodes := r.Count(n)
	if r.Err() != nil {
		return false
	}
	last := -1
	for i := 0; i < nNodes; i++ {
		v := r.Varint()
		wr := r.Int()
		if r.Err() != nil {
			return false
		}
		if v <= int64(last) || v >= int64(n) {
			r.Fail(fmt.Errorf("engine: checkpoint node %d out of order or range", v))
			return false
		}
		last = int(v)
		switch {
		case e.awake[v] && wr != int(e.wakeRnd[v]):
			r.Fail(fmt.Errorf("engine: checkpoint wake round %d for node %d, engine has %d", wr, v, e.wakeRnd[v]))
			return false
		case !e.awake[v] && (wr <= pround || wr > round):
			r.Fail(fmt.Errorf("engine: checkpoint wake round %d for new node %d outside (%d, %d]", wr, v, pround, round))
			return false
		}
		e.awake[v] = true
		e.wakeRnd[v] = int32(wr)
		e.quiet[v] = int32(r.Varint())
		if r.Err() != nil {
			return false
		}
		np := e.newRestoredNode(r, graph.NodeID(v))
		e.states[v] = np
		e.quiescer[v], _ = np.(Quiescer)
		st, ok := np.(ckpt.Stater)
		if !ok {
			r.Fail(fmt.Errorf("engine: algorithm %q node state %T does not support checkpointing", e.algo.Name(), np))
			return false
		}
		st.LoadState(r)
		if r.Err() != nil {
			return false
		}
	}

	r.Section(tagActive)
	activeMoved := r.Bool()
	if r.Err() != nil {
		return false
	}
	if activeMoved {
		list := e.readNodeList(r, "active")
		if r.Err() != nil {
			return false
		}
		for _, v := range e.activeList {
			e.active[v] = false
		}
		e.activeList = append(e.activeList[:0], list...)
		for _, v := range list {
			e.active[v] = true
		}
	}

	r.Section(tagSnaps)
	cols := e.readNodeList(r, "changed-output")
	// A slot reads no bytes when no output changed, so its count is an
	// Int held to the one valid value, not a Count.
	nSlots := r.Int()
	if r.Err() != nil {
		return false
	}
	first, want := e.snapWindow(pround, round)
	if nSlots != want {
		r.Fail(fmt.Errorf("engine: record has %d snapshot slots for rounds (%d, %d], want %d", nSlots, pround, round, want))
		return false
	}
	if nSlots > 0 {
		// Stage the parent's latest snapshot (all Bot for a base):
		// unlisted nodes hold its value in every new slot, and one new
		// slot index may collide with the buffer it lives in
		// (rr = pround + lag + 1).
		scratch := ckpt.AllocSlice[problems.Value](r, n)
		if pround > 0 {
			copy(scratch, e.snaps[pround%len(e.snaps)])
		}
		for rr := first; rr < first+nSlots; rr++ {
			slot := e.snaps[rr%len(e.snaps)]
			if slot == nil {
				slot = ckpt.AllocSlice[problems.Value](r, n)
				e.snaps[rr%len(e.snaps)] = slot
			}
			copy(slot, scratch)
			for _, v := range cols {
				slot[v] = problems.Value(r.Varint())
			}
			if r.Err() != nil {
				return false
			}
		}
	}

	r.Section(tagAdversary)
	hasAdv := r.Bool()
	if r.Err() != nil {
		return false
	}
	if isCk := e.advCk != nil; hasAdv != isCk {
		r.Fail(fmt.Errorf("engine: record adversary state presence %v, engine adversary %T checkpointer %v", hasAdv, e.adv, isCk))
		return false
	}
	if hasAdv {
		isDelta := r.Bool()
		if r.Err() != nil {
			return false
		}
		if canDelta := e.advDelta != nil; isDelta != (canDelta && !base) {
			r.Fail(fmt.Errorf("engine: record adversary encoding delta=%v, engine adversary %T delta-capable=%v, base=%v", isDelta, e.adv, canDelta, base))
			return false
		}
		if isDelta {
			e.advDelta.LoadDelta(r, pround, round)
		} else {
			e.advCk.LoadState(r)
		}
		if r.Err() != nil {
			return false
		}
	}

	// Sections validated — apply the topology diff, which Apply checks
	// against the parent's topology. Every edge entering must connect
	// awake nodes: the model invariant Step asserts on the way in holds
	// for persisted edges by induction.
	if err := e.adj.Apply(adds, rems); err != nil {
		r.Fail(fmt.Errorf("engine: checkpoint %w", err))
		return false
	}
	for _, k := range adds {
		if u, v := k.Nodes(); !e.awake[u] || !e.awake[v] {
			r.Fail(fmt.Errorf("engine: checkpoint edge %v touches a sleeping node", k))
			return false
		}
	}
	e.round = round
	return base
}

// checkMirrors checks, after a chain is read, that the components
// keeping their own copy of the live topology agree with the restored
// engine: an adversary implementing adversary.EdgeMirror, and the chain
// part (nil for none). A record that makes them disagree fails the read
// instead of making a later round add a present edge, remove an absent
// one or touch a sleeping node.
func (e *Engine) checkMirrors(part ChainPart) error {
	m, has := e.topology()
	hasEdge := func(k graph.EdgeKey) bool {
		u, v := k.Nodes()
		return u >= 0 && u < v && int(v) < e.cfg.N && has(u, v)
	}
	if mirror, ok := e.adv.(adversary.EdgeMirror); ok {
		if err := mirror.CheckEdges(m, hasEdge); err != nil {
			return fmt.Errorf("engine: restored adversary state disagrees with the restored topology: %w", err)
		}
	}
	if part != nil {
		awake := func(v graph.NodeID) bool { return e.awake[v] }
		if err := part.CheckTopology(m, hasEdge, awake); err != nil {
			return fmt.Errorf("engine: restored chain part disagrees with the restored topology: %w", err)
		}
	}
	return nil
}

// topology returns the edge count of the engine's current topology and
// a membership test on it.
func (e *Engine) topology() (int, func(u, v graph.NodeID) bool) {
	return e.adj.M(), func(u, v graph.NodeID) bool { return u != v && e.adj.Has(graph.MakeEdgeKey(u, v)) }
}

// readConfig reads a base record's configuration block and fails r on
// any mismatch with the restoring engine: node state only replays
// correctly under the exact same configuration. The block's dense flag
// belongs to a round walk the engine no longer has, so a record with it
// set is refused by name.
func (e *Engine) readConfig(r *ckpt.Reader) {
	name := r.String()
	n := r.Int()
	seed := r.Uvarint()
	lag := r.Int()
	dense := r.Bool()
	hasInput := r.Bool()
	if r.Err() != nil {
		return
	}
	switch {
	case name != e.algo.Name():
		r.Fail(fmt.Errorf("engine: checkpoint is for algorithm %q, engine runs %q", name, e.algo.Name()))
	case n != e.cfg.N:
		r.Fail(fmt.Errorf("engine: checkpoint has N=%d, engine has N=%d", n, e.cfg.N))
	case seed != e.cfg.Seed:
		r.Fail(fmt.Errorf("engine: checkpoint has seed %d, engine has seed %d", seed, e.cfg.Seed))
	case lag != e.lag:
		r.Fail(fmt.Errorf("engine: checkpoint has OutputLag=%d, engine has %d", lag, e.lag))
	case dense:
		r.Fail(errors.New("engine: checkpoint was written by the retired dense walk; rewrite it from a fresh run"))
	case hasInput != (e.cfg.Input != nil):
		r.Fail(fmt.Errorf("engine: checkpoint input presence %v, engine %v", hasInput, e.cfg.Input != nil))
	}
	for i := 0; hasInput && i < n && r.Err() == nil; i++ {
		if val := problems.Value(r.Varint()); r.Err() == nil && val != e.cfg.Input[i] {
			r.Fail(fmt.Errorf("engine: checkpoint input[%d]=%d, engine has %d", i, val, e.cfg.Input[i]))
		}
	}
}

// WriteRecord writes one record of the engine and, when non-nil, part to
// a chain and notes it on success. A base starts a new chain on w: the
// chain magic, then the record. A delta appends one record diffing
// against the last noted one. On error nothing is noted, so the next
// delta still diffs against the last record that actually persisted —
// exactly what a crashed-then-resumed appender needs. The same part (nil
// or not) must be passed to every call on one chain.
func (e *Engine) WriteRecord(w io.Writer, base bool, part ChainPart) error {
	// The record is built in memory to learn its length for the chain
	// framing; the buffer is kept for the next record.
	cw := &e.recW
	cw.Reset()
	e.CheckpointTo(cw, base)
	if part != nil {
		part.SaveDelta(cw, base)
	}
	if err := cw.Close(); err != nil {
		return err
	}
	if base {
		if err := ckpt.WriteChainMagic(w); err != nil {
			return err
		}
	}
	if err := ckpt.AppendChainRecord(w, cw); err != nil {
		return err
	}
	e.NoteCheckpoint(base, cw.Sum32())
	if part != nil {
		part.NoteCheckpoint()
	}
	return nil
}

// ReadChain restores a chain written by WriteRecord into a freshly
// constructed engine and part (nil to match a nil at write time),
// carving allocations from the optional arena. Every record is
// CRC-verified in memory and its parent linkage validated before it
// applies, so a torn tail, a reordered record or a delta over the wrong
// base fails cleanly. After a successful return the run continues
// bit-identically from the last record's round and can keep appending
// deltas to the same chain.
func (e *Engine) ReadChain(r io.Reader, a *ckpt.RestoreArena, part ChainPart) error {
	cr := ckpt.NewChainReader(r)
	for n := 0; ; n++ {
		rec, err := cr.Next()
		if err == io.EOF {
			if n == 0 {
				return errors.New("engine: empty checkpoint chain")
			}
			if err := e.checkMirrors(part); err != nil {
				return err
			}
			if part != nil {
				return part.FinishChain()
			}
			return nil
		}
		if err != nil {
			return err
		}
		rr := ckpt.NewReader(rec)
		rr.SetArena(a)
		base := e.RestoreFrom(rr)
		if part != nil {
			part.LoadDelta(rr, base)
		}
		if err := rr.Err(); err != nil {
			return err
		}
		if err := rr.Close(); err != nil {
			return err
		}
		e.NoteCheckpoint(base, rr.Sum32())
		if part != nil {
			part.NoteCheckpoint()
		}
	}
}
