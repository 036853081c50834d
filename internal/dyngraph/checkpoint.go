package dyngraph

import (
	"fmt"
	"sort"

	"dynlocal/internal/ckpt"
	"dynlocal/internal/graph"
)

// Checkpoint support: a Window serializes its full streak/ring state so
// a restored checker resumes with bit-identical window deltas. LoadState
// runs on a freshly constructed NewWindow(t, n) with the same geometry —
// t and n are configuration, validated rather than restored.

// tagWindow guards the window section of a checkpoint stream;
// tagWindowDelta guards the incremental variant used by chain records.
const (
	tagWindow      uint64 = 0x81
	tagWindowDelta uint64 = 0x82
)

// feedMode returns the feed-mode field both window records carry for a
// window at round r: 2 (the delta feed) once it has observed a round, 0
// before. The value 1 marked the retired graph-fed scan feed; readers
// refuse it, along with any value that disagrees with the record's round.
func feedMode(r int) int {
	if r > 0 {
		return 2
	}
	return 0
}

// SaveState implements ckpt.Stater. The spans map is written with sorted
// keys so identical runs produce byte-identical checkpoints; the ring
// slots and wake buckets are written verbatim — slot order is observable
// (it is the emission order of expiry/arrival deltas), so preserving it
// exactly is what keeps resumed Delta output bit-identical.
func (w *Window) SaveState(cw *ckpt.Writer) {
	cw.Section(tagWindow)
	cw.Int(w.t)
	cw.Int(w.n)
	cw.Int(w.round)
	cw.Int(feedMode(w.round))

	keys := make([]graph.EdgeKey, 0, len(w.spans))
	for k := range w.spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cw.Int(len(keys))
	for _, k := range keys {
		sp := w.spans[k]
		cw.Uvarint(uint64(k))
		cw.Bool(sp.present)
		cw.Int(sp.lastSeen)
		cw.Int(sp.streakStart)
		cw.Bool(sp.inInter)
	}

	nAwake := 0
	for _, r := range w.wake {
		if r != 0 {
			nAwake++
		}
	}
	cw.Int(nAwake)
	for v, r := range w.wake {
		if r != 0 {
			cw.Varint(int64(v))
			cw.Int(r)
		}
	}

	saveRing(cw, w.expiry)
	saveRing(cw, w.pending)

	rounds := make([]int, 0, len(w.byWake))
	for r := range w.byWake {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	cw.Int(len(rounds))
	for _, r := range rounds {
		cw.Int(r)
		bucket := w.byWake[r]
		cw.Int(len(bucket))
		for _, v := range bucket {
			cw.Varint(int64(v))
		}
	}
}

// LoadState implements ckpt.Stater.
func (w *Window) LoadState(cr *ckpt.Reader) {
	cr.Section(tagWindow)
	if w.round != 0 {
		cr.Fail(fmt.Errorf("dyngraph: LoadState requires a fresh window, this one has observed %d rounds", w.round))
		return
	}
	t := cr.Int()
	n := cr.Int()
	round := cr.Int()
	mode := cr.Int()
	if cr.Err() != nil {
		return
	}
	switch {
	case t != w.t:
		cr.Fail(fmt.Errorf("dyngraph: checkpoint window size %d, window has %d", t, w.t))
	case n != w.n:
		cr.Fail(fmt.Errorf("dyngraph: checkpoint universe %d, window has %d", n, w.n))
	case round < 0:
		cr.Fail(fmt.Errorf("dyngraph: checkpoint has negative round %d", round))
	case mode != feedMode(round):
		cr.Fail(fmt.Errorf("dyngraph: checkpoint has feed mode %d at round %d (only the delta feed is supported)", mode, round))
	}
	if cr.Err() != nil {
		return
	}
	w.round = round

	edgeCap := n * (n - 1) / 2
	nSpans := cr.Count(edgeCap)
	if cr.Err() != nil {
		return
	}
	for i := 0; i < nSpans; i++ {
		k := graph.EdgeKey(cr.Uvarint())
		sp := edgeSpan{}
		sp.present = cr.Bool()
		sp.lastSeen = cr.Int()
		sp.streakStart = cr.Int()
		sp.inInter = cr.Bool()
		if cr.Err() != nil {
			return
		}
		if u, v := k.Nodes(); u < 0 || u >= v || int(v) >= n {
			cr.Fail(fmt.Errorf("dyngraph: checkpoint edge %v outside universe [0,%d)", k, n))
			return
		}
		w.spans[k] = sp
	}

	nAwake := cr.Count(n)
	if cr.Err() != nil {
		return
	}
	for i := 0; i < nAwake; i++ {
		v := cr.Varint()
		r := cr.Int()
		if cr.Err() != nil {
			return
		}
		if v < 0 || v >= int64(n) || r < 1 || r > round {
			cr.Fail(fmt.Errorf("dyngraph: checkpoint wake entry (%d, %d) out of range", v, r))
			return
		}
		w.wake[v] = r
	}

	w.expiry = loadRing(cr, w.t, edgeCap)
	w.pending = loadRing(cr, w.t, edgeCap)
	if cr.Err() != nil {
		return
	}

	nBuckets := cr.Count(round + 1)
	if cr.Err() != nil {
		return
	}
	for i := 0; i < nBuckets; i++ {
		r := cr.Int()
		cnt := cr.Count(n)
		if cr.Err() != nil {
			return
		}
		bucket := make([]graph.NodeID, cnt)
		for j := range bucket {
			bucket[j] = graph.NodeID(cr.Varint())
		}
		if cr.Err() != nil {
			return
		}
		w.byWake[r] = bucket
	}
}

// NoteCheckpoint records that a checkpoint record capturing the window's
// current state was durably persisted, resetting the dirty tracking so
// the next SaveDelta diffs against exactly that record. The first call
// enables tracking; windows outside a chain never pay for it. Callers
// must note every persisted chain record — on the restore side too, so a
// restored window can keep extending the same chain.
func (w *Window) NoteCheckpoint() {
	if !w.track {
		w.track = true
		w.dirtySpans = make(map[graph.EdgeKey]struct{})
		w.dirtyExpiry = make([]bool, w.t)
		w.dirtyPending = make([]bool, w.t)
		w.dirtyByWake = make(map[int]struct{})
	} else {
		clear(w.dirtySpans)
		clear(w.dirtyExpiry)
		clear(w.dirtyPending)
		clear(w.dirtyByWake)
	}
	w.dirtyWake = w.dirtyWake[:0]
}

// SaveDelta writes the window's state difference against the last record
// passed to NoteCheckpoint: only the spans, wake entries, ring slots and
// wake buckets that moved. Tracking is not reset — the caller notes the
// record once it is durably persisted.
func (w *Window) SaveDelta(cw *ckpt.Writer) {
	cw.Section(tagWindowDelta)
	if !w.track {
		cw.Fail(fmt.Errorf("dyngraph: SaveDelta without a noted base checkpoint"))
		return
	}
	cw.Int(w.round)
	cw.Int(feedMode(w.round))

	keys := make([]graph.EdgeKey, 0, len(w.dirtySpans))
	for k := range w.dirtySpans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cw.Int(len(keys))
	for _, k := range keys {
		cw.Uvarint(uint64(k))
		sp, ok := w.spans[k]
		cw.Bool(ok)
		if ok {
			cw.Bool(sp.present)
			cw.Int(sp.lastSeen)
			cw.Int(sp.streakStart)
			cw.Bool(sp.inInter)
		}
	}

	sort.Slice(w.dirtyWake, func(i, j int) bool { return w.dirtyWake[i] < w.dirtyWake[j] })
	cw.Int(len(w.dirtyWake))
	for _, v := range w.dirtyWake {
		cw.Varint(int64(v))
		cw.Int(w.wake[int(v)])
	}

	saveRingDelta(cw, w.expiry, w.dirtyExpiry)
	saveRingDelta(cw, w.pending, w.dirtyPending)

	rounds := make([]int, 0, len(w.dirtyByWake))
	for r := range w.dirtyByWake {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
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

// LoadDelta applies one delta record to a window positioned at the
// record's parent state. Chain linkage (sequence, parent fingerprint) is
// validated by the enclosing record's header at the engine layer; here
// the per-field invariants are checked — rounds move forward, the feed
// mode matches the round, and every id, key and slot index stays in range.
// The window must have a noted base (LoadState + NoteCheckpoint).
func (w *Window) LoadDelta(cr *ckpt.Reader) {
	cr.Section(tagWindowDelta)
	if !w.track {
		cr.Fail(fmt.Errorf("dyngraph: LoadDelta without a restored base checkpoint"))
		return
	}
	round := cr.Int()
	mode := cr.Int()
	if cr.Err() != nil {
		return
	}
	switch {
	case round < w.round:
		cr.Fail(fmt.Errorf("dyngraph: delta round %d precedes window round %d", round, w.round))
	case mode != feedMode(round):
		cr.Fail(fmt.Errorf("dyngraph: delta has feed mode %d at round %d (only the delta feed is supported)", mode, round))
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
		k := graph.EdgeKey(cr.Uvarint())
		exists := cr.Bool()
		if cr.Err() != nil {
			return
		}
		if i > 0 && k <= prevKey {
			cr.Fail(fmt.Errorf("dyngraph: delta span keys not strictly ascending"))
			return
		}
		prevKey = k
		if u, v := k.Nodes(); u < 0 || u >= v || int(v) >= w.n {
			cr.Fail(fmt.Errorf("dyngraph: delta span edge %v outside universe [0,%d)", k, w.n))
			return
		}
		if !exists {
			delete(w.spans, k)
			continue
		}
		sp := edgeSpan{}
		sp.present = cr.Bool()
		sp.lastSeen = cr.Int()
		sp.streakStart = cr.Int()
		sp.inInter = cr.Bool()
		if cr.Err() != nil {
			return
		}
		w.spans[k] = sp
	}

	nWake := cr.Count(w.n)
	if cr.Err() != nil {
		return
	}
	for i := 0; i < nWake; i++ {
		v := cr.Varint()
		r := cr.Int()
		if cr.Err() != nil {
			return
		}
		if v < 0 || v >= int64(w.n) || r < 1 || r > round {
			cr.Fail(fmt.Errorf("dyngraph: delta wake entry (%d, %d) out of range", v, r))
			return
		}
		if w.wake[v] != 0 && w.wake[v] != r {
			cr.Fail(fmt.Errorf("dyngraph: delta re-wakes node %d (round %d, was %d)", v, r, w.wake[v]))
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
			cr.Fail(fmt.Errorf("dyngraph: delta wake bucket round %d out of order or range", r))
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
			bucket[j] = graph.NodeID(cr.Varint())
		}
		if cr.Err() != nil {
			return
		}
		w.byWake[r] = bucket
	}

	w.round = round
}

// saveRingDelta writes only the dirty slots of a ring, by index.
func saveRingDelta(cw *ckpt.Writer, ring [][]graph.EdgeKey, dirty []bool) {
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	cw.Int(n)
	for i, d := range dirty {
		if !d {
			continue
		}
		cw.Int(i)
		slot := ring[i]
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
			cr.Fail(fmt.Errorf("dyngraph: delta ring slot %d out of order or range", idx))
			return
		}
		prev = idx
		cnt := cr.Count(edgeCap)
		if cr.Err() != nil {
			return
		}
		slot := ring[idx][:0]
		for j := 0; j < cnt; j++ {
			slot = append(slot, graph.EdgeKey(cr.Uvarint()))
		}
		if cr.Err() != nil {
			return
		}
		ring[idx] = slot
	}
}

// saveRing writes a t-slot edge-key ring verbatim.
func saveRing(cw *ckpt.Writer, ring [][]graph.EdgeKey) {
	cw.Int(len(ring))
	for _, slot := range ring {
		cw.Int(len(slot))
		for _, k := range slot {
			cw.Uvarint(uint64(k))
		}
	}
}

// loadRing restores a ring of exactly t slots.
func loadRing(cr *ckpt.Reader, t, edgeCap int) [][]graph.EdgeKey {
	n := cr.Count(t)
	if cr.Err() != nil {
		return nil
	}
	if n != t {
		cr.Fail(fmt.Errorf("dyngraph: checkpoint ring has %d slots, window needs %d", n, t))
		return nil
	}
	ring := make([][]graph.EdgeKey, t)
	for i := range ring {
		cnt := cr.Count(edgeCap)
		if cr.Err() != nil {
			return nil
		}
		if cnt == 0 {
			continue
		}
		slot := make([]graph.EdgeKey, cnt)
		for j := range slot {
			slot[j] = graph.EdgeKey(cr.Uvarint())
		}
		ring[i] = slot
	}
	return ring
}

var _ ckpt.Stater = (*Window)(nil)
