package dyngraph

import (
	"fmt"
	"math"
	"slices"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
)

// Checkpoint support: a Window writes one record kind, the entries that
// differ from a parent — the last record passed to NoteCheckpoint (a
// delta) or the freshly constructed window (a base). A base lists every
// span, wake entry, non-empty ring slot and wake bucket, plus the window
// geometry t and n, which are configuration, validated rather than
// restored. Ring slots and wake buckets are written verbatim: slot order
// is observable (it is the emission order of expiry/arrival deltas), so
// preserving it exactly is what keeps resumed Delta output bit-identical.

// tagWindow guards the window section of a checkpoint record.
const tagWindow uint64 = 0x81

// NoteCheckpoint records that a checkpoint record capturing the window's
// current state was durably persisted, resetting the dirty tracking so
// the next SaveDelta diffs against exactly that record. The first call
// enables tracking; windows outside a chain never pay for it. Callers
// must note every persisted chain record — on the restore side too, so a
// restored window can keep extending the same chain.
func (w *Window) NoteCheckpoint() {
	if !w.track {
		w.track = true
		w.dirtyExpiry = make([]bool, w.t)
		w.dirtyPending = make([]bool, w.t)
		w.dirtyByWake = make(map[int]struct{})
	} else {
		w.dirtySpans.Clear()
		clear(w.dirtyExpiry)
		clear(w.dirtyPending)
		clear(w.dirtyByWake)
	}
	w.dirtyWake = w.dirtyWake[:0]
}

// SaveDelta writes the window's record: for a base, its whole state; for
// a delta, only the spans, wake entries, ring slots and wake buckets that
// moved since the last record passed to NoteCheckpoint. Tracking is not
// reset — the caller notes the record once it is durably persisted.
// Span keys and wake nodes are written as ascending gaps.
func (w *Window) SaveDelta(cw *ckpt.Writer, base bool) {
	cw.Section(tagWindow)
	if !base && !w.track {
		cw.Fail(fmt.Errorf("dyngraph: delta record without a noted base record"))
		return
	}
	var keys []graph.EdgeKey
	var rounds []int
	if base {
		cw.Int(w.t)
		cw.Int(w.n)
		keys = w.sortedSpanKeys()
		rounds = slices.Grow(w.saveRounds[:0], len(w.byWake))
		for r := range w.byWake {
			rounds = append(rounds, r)
		}
	} else {
		w.scratch, w.sortTmp = w.dirtySpans.AppendSortedKeys(w.scratch[:0], w.sortTmp)
		keys = w.scratch
		rounds = slices.Grow(w.saveRounds[:0], len(w.dirtyByWake))
		for r := range w.dirtyByWake {
			rounds = append(rounds, r)
		}
	}
	w.saveRounds = rounds
	slices.Sort(rounds)
	cw.Int(w.round)

	cw.Int(len(keys))
	var prevKey graph.EdgeKey
	for _, k := range keys {
		cw.Uvarint(uint64(k - prevKey))
		prevKey = k
		sp, ok := w.spans.Get(k)
		cw.Bool(ok)
		if ok {
			cw.Bool(sp.present)
			cw.Int(int(sp.lastSeen))
			cw.Int(int(sp.streakStart))
			cw.Bool(sp.inInter)
		}
	}

	// Wake entries: every woken node for a base, the newly woken ones for
	// a delta.
	var prevV graph.NodeID
	writeWake := func(v graph.NodeID) {
		cw.Uvarint(uint64(v - prevV))
		prevV = v
		cw.Int(w.wake[v])
	}
	if base {
		nWake := 0
		for _, r := range w.wake {
			if r != 0 {
				nWake++
			}
		}
		cw.Int(nWake)
		for v, r := range w.wake {
			if r != 0 {
				writeWake(graph.NodeID(v))
			}
		}
	} else {
		slices.Sort(w.dirtyWake)
		cw.Int(len(w.dirtyWake))
		for _, v := range w.dirtyWake {
			writeWake(v)
		}
	}

	saveRingDelta(cw, w.expiry, w.dirtyExpiry, base)
	saveRingDelta(cw, w.pending, w.dirtyPending, base)

	cw.Int(len(rounds))
	for _, r := range rounds {
		cw.Int(r)
		bucket, ok := w.byWake[r]
		cw.Bool(ok)
		if ok {
			cw.Int(len(bucket))
			for _, v := range bucket {
				cw.Varint(int64(v))
			}
		}
	}
}

// CheckTopology returns an error unless the window's round graph holds
// exactly the m edges hasEdge reports and its woken nodes are exactly
// those awake reports. A restored window fed from a restored engine must
// agree with it: otherwise a later round adds a present edge, removes an
// absent one or touches a node the window thinks asleep.
func (w *Window) CheckTopology(m int, hasEdge func(graph.EdgeKey) bool, awake func(graph.NodeID) bool) error {
	for v, r := range w.wake {
		switch up := awake(graph.NodeID(v)); {
		case r != 0 && !up:
			return fmt.Errorf("dyngraph: window woke node %d in round %d, the topology has it asleep", v, r)
		case r == 0 && up:
			return fmt.Errorf("dyngraph: node %d is awake in the topology, asleep in the window", v)
		}
	}
	present, shared := 0, 0
	for _, k := range w.sortedSpanKeys() {
		if sp, _ := w.spans.Get(k); sp.present {
			present++
			if hasEdge(k) {
				shared++
			}
		}
	}
	if present != m || shared != m {
		return fmt.Errorf("dyngraph: window round graph has %d edges, %d of them among the topology's %d", present, shared, m)
	}
	return nil
}

// LoadDelta applies one record to the window: a base onto a freshly
// constructed NewWindow(t, n) with the record's geometry, a delta onto
// the state of its parent record (base LoadDelta + NoteCheckpoint, then
// every earlier delta). Chain linkage (sequence, parent fingerprint) is
// validated by the enclosing record's header at the engine layer; here
// the per-field invariants are checked — rounds move forward, and every
// id, key and slot index stays in range.
func (w *Window) LoadDelta(cr *ckpt.Reader, base bool) {
	cr.Section(tagWindow)
	switch {
	case base && (w.round != 0 || w.track):
		cr.Fail(fmt.Errorf("dyngraph: a base record restores only into a fresh window, this one has observed %d rounds", w.round))
		return
	case !base && !w.track:
		cr.Fail(fmt.Errorf("dyngraph: delta record without a restored base record"))
		return
	}
	if base {
		t := cr.Int()
		n := cr.Int()
		if cr.Err() == nil && (t != w.t || n != w.n) {
			cr.Fail(fmt.Errorf("dyngraph: record window (t=%d, n=%d), window has (t=%d, n=%d)", t, n, w.t, w.n))
		}
	}
	round := cr.Int()
	switch {
	case cr.Err() != nil:
	case round < w.round:
		cr.Fail(fmt.Errorf("dyngraph: record round %d precedes window round %d", round, w.round))
	case round > math.MaxInt32:
		// Spans hold rounds as int32.
		cr.Fail(fmt.Errorf("dyngraph: record round %d exceeds %d", round, math.MaxInt32))
	}
	if cr.Err() != nil {
		return
	}

	edgeCap := w.n * (w.n - 1) / 2
	nSpans := cr.Count(edgeCap)
	if cr.Err() != nil {
		return
	}
	var prevKey graph.EdgeKey
	for i := 0; i < nSpans; i++ {
		d := graph.EdgeKey(cr.Uvarint())
		exists := cr.Bool()
		if cr.Err() != nil {
			return
		}
		k := prevKey + d
		if i > 0 && (d == 0 || k < prevKey) {
			cr.Fail(fmt.Errorf("dyngraph: record span keys not strictly ascending"))
			return
		}
		prevKey = k
		if u, v := k.Nodes(); u < 0 || u >= v || int(v) >= w.n {
			cr.Fail(fmt.Errorf("dyngraph: record span edge %v outside universe [0,%d)", k, w.n))
			return
		}
		if !exists {
			w.spans.Delete(k)
			continue
		}
		present := cr.Bool()
		lastSeen := cr.Int()
		streakStart := cr.Int()
		inInter := cr.Bool()
		if cr.Err() != nil {
			return
		}
		if lastSeen < 0 || lastSeen > round || streakStart < 0 || streakStart > round {
			cr.Fail(fmt.Errorf("dyngraph: record span %v rounds (%d, %d) outside [0,%d]", k, lastSeen, streakStart, round))
			return
		}
		w.spans.Put(k, edgeSpan{lastSeen: int32(lastSeen), streakStart: int32(streakStart), present: present, inInter: inInter})
	}

	nWake := cr.Count(w.n)
	if cr.Err() != nil {
		return
	}
	prevV := uint64(0)
	for i := 0; i < nWake; i++ {
		d := cr.Uvarint()
		r := cr.Int()
		if cr.Err() != nil {
			return
		}
		v := prevV + d
		if (i > 0 && d == 0) || d >= uint64(w.n) || v >= uint64(w.n) || r < 1 || r > round {
			cr.Fail(fmt.Errorf("dyngraph: record wake entry (%d, %d) out of order or range", v, r))
			return
		}
		prevV = v
		if w.wake[v] != 0 && w.wake[v] != r {
			cr.Fail(fmt.Errorf("dyngraph: record re-wakes node %d (round %d, was %d)", v, r, w.wake[v]))
			return
		}
		w.wake[v] = r
	}

	loadRingDelta(cr, w.expiry, w.t, edgeCap)
	loadRingDelta(cr, w.pending, w.t, edgeCap)
	if cr.Err() != nil {
		return
	}

	nBuckets := cr.Count(round + 1)
	if cr.Err() != nil {
		return
	}
	prevRound := -1
	for i := 0; i < nBuckets; i++ {
		r := cr.Int()
		exists := cr.Bool()
		if cr.Err() != nil {
			return
		}
		if r <= prevRound || r < 1 || r > round {
			cr.Fail(fmt.Errorf("dyngraph: record wake bucket round %d out of order or range", r))
			return
		}
		prevRound = r
		if !exists {
			delete(w.byWake, r)
			continue
		}
		cnt := cr.Count(w.n)
		if cr.Err() != nil {
			return
		}
		bucket := make([]graph.NodeID, cnt)
		for j := range bucket {
			v := cr.Varint()
			if v < 0 || v >= int64(w.n) {
				cr.Fail(fmt.Errorf("dyngraph: record wake bucket node %d outside universe [0,%d)", v, w.n))
			}
			bucket[j] = graph.NodeID(v)
		}
		if cr.Err() != nil {
			return
		}
		w.byWake[r] = bucket
	}

	w.round = round
}

// saveRingDelta writes a ring's listed slots by index: the dirty ones
// for a delta, the non-empty ones for a base.
func saveRingDelta(cw *ckpt.Writer, ring [][]graph.EdgeKey, dirty []bool, base bool) {
	listed := func(i int) bool {
		if base {
			return len(ring[i]) > 0
		}
		return dirty[i]
	}
	n := 0
	for i := range ring {
		if listed(i) {
			n++
		}
	}
	cw.Int(n)
	for i, slot := range ring {
		if !listed(i) {
			continue
		}
		cw.Int(i)
		cw.Int(len(slot))
		for _, k := range slot {
			cw.Uvarint(uint64(k))
		}
	}
}

// loadRingDelta replaces the listed slots of a ring in place, reusing
// each slot's backing array.
func loadRingDelta(cr *ckpt.Reader, ring [][]graph.EdgeKey, t, edgeCap int) {
	n := cr.Count(t)
	if cr.Err() != nil {
		return
	}
	prev := -1
	for i := 0; i < n; i++ {
		idx := cr.Int()
		if cr.Err() != nil {
			return
		}
		if idx <= prev || idx >= t {
			cr.Fail(fmt.Errorf("dyngraph: record ring slot %d out of order or range", idx))
			return
		}
		prev = idx
		cnt := cr.Count(edgeCap)
		if cr.Err() != nil {
			return
		}
		slot := ring[idx][:0]
		if cap(slot) < cnt {
			slot = make([]graph.EdgeKey, 0, cnt)
		}
		for j := 0; j < cnt; j++ {
			slot = append(slot, graph.EdgeKey(cr.Uvarint()))
		}
		if cr.Err() != nil {
			return
		}
		ring[idx] = slot
	}
}
