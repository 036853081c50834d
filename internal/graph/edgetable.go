package graph

import "slices"

// EdgeTable is a hash table keyed by EdgeKey: flat open addressing with
// linear probing over one slot array, so a lookup reads one run of
// adjacent slots and the table's storage is a single allocation. It is
// the edge-keyed set and map of the record, resume and verify paths
// (the sliding window's spans, the trace codecs' live edge sets, Churn's
// key index, the engine's checkpoint diff and the trackers' conflict
// sets).
//
// Key 0 marks an empty slot: it would be the self-loop {0,0}, which no
// edge is, so Put refuses it. Deletion shifts the following entries of
// its probe run back into the hole, so a table under steady churn holds
// no tombstones and never rehashes at a constant size. The table grows by
// doubling once more than 7/8 of its slots are full.
//
// No method exposes slot order: the only walk is AppendSortedKeys, which
// yields the keys ascending. Iteration order therefore cannot leak into
// anything a run computes, and code built on the table stays
// deterministic without a sort at every use site. The zero value is an
// empty table ready to use.
type EdgeTable[V any] struct {
	slots []edgeSlot[V]
	n     int
	shift uint // 64 - log2(len(slots)): home takes the product's top bits
}

// edgeSlot puts the value first: a zero-size value in last place would
// be padded, doubling a set's slot to 16 bytes.
type edgeSlot[V any] struct {
	v V
	k EdgeKey
}

const (
	// edgeHashMul is 2^64 divided by the golden ratio: multiplicative
	// (Fibonacci) hashing spreads keys that differ in either endpoint
	// across the product's top bits.
	edgeHashMul = 0x9E3779B97F4A7C15
	// minEdgeSlots is the slot count of a table's first allocation.
	minEdgeSlots = 8
	// smallSortKeys is the key count up to which AppendSortedKeys uses a
	// comparison sort; above it the radix sort's fixed cost pays off.
	smallSortKeys = 256
)

// home returns the slot a key's probe run starts at.
func (t *EdgeTable[V]) home(k EdgeKey) int {
	return int(uint64(k) * edgeHashMul >> t.shift)
}

// find returns the slot holding k, or -1.
func (t *EdgeTable[V]) find(k EdgeKey) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.slots[i].k {
		case 0:
			return -1
		case k:
			return i
		}
	}
}

// Len returns the number of keys in the table.
func (t *EdgeTable[V]) Len() int { return t.n }

// Get returns the value stored under k and whether k is present; an
// absent key reads as V's zero value.
func (t *EdgeTable[V]) Get(k EdgeKey) (V, bool) {
	if i := t.find(k); i >= 0 {
		return t.slots[i].v, true
	}
	var zero V
	return zero, false
}

// Has reports whether k is in the table.
func (t *EdgeTable[V]) Has(k EdgeKey) bool { return t.find(k) >= 0 }

// Put stores v under k, replacing any value already there. It panics on
// key 0, which no edge has.
func (t *EdgeTable[V]) Put(k EdgeKey, v V) {
	if k == 0 {
		panic("graph: EdgeTable key 0 is not an edge")
	}
	if i := t.find(k); i >= 0 {
		t.slots[i].v = v
		return
	}
	if 8*(t.n+1) > 7*len(t.slots) {
		t.rehash(2 * max(len(t.slots), minEdgeSlots/2))
	}
	t.insert(k, v)
	t.n++
}

// insert places a key known to be absent into its probe run's first
// empty slot.
func (t *EdgeTable[V]) insert(k EdgeKey, v V) {
	mask := len(t.slots) - 1
	i := t.home(k)
	for t.slots[i].k != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = edgeSlot[V]{v, k}
}

// Delete removes k and reports whether it was present. Every entry
// after the hole in its probe run that may sit there moves back, so
// lookups never need a tombstone.
func (t *EdgeTable[V]) Delete(k EdgeKey) bool {
	i := t.find(k)
	if i < 0 {
		return false
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].k != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, i.e. it sits at least as far from its home as from i.
		if (j-t.home(t.slots[j].k))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = edgeSlot[V]{}
	t.n--
	return true
}

// Clear removes every key and keeps the slot array.
func (t *EdgeTable[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// Reserve grows the table so that it holds n keys without rehashing.
func (t *EdgeTable[V]) Reserve(n int) {
	if 8*n <= 7*len(t.slots) {
		return
	}
	size := max(len(t.slots), minEdgeSlots)
	for 7*size < 8*n {
		size *= 2
	}
	t.rehash(size)
}

// rehash moves every entry into a fresh slot array of size slots, a
// power of two.
func (t *EdgeTable[V]) rehash(size int) {
	old := t.slots
	t.slots = make([]edgeSlot[V], size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for _, s := range old {
		if s.k != 0 {
			t.insert(s.k, s.v)
		}
	}
}

// AppendSortedKeys appends the table's keys to dst in ascending order
// and returns the extended slice. tmp is scratch for the radix sort that
// orders large key sets (graph.SortEdgeKeys); it is grown as needed and
// returned for reuse, so a caller that keeps both slices across calls
// sorts without allocating. Small sets use a comparison sort and leave
// tmp alone.
func (t *EdgeTable[V]) AppendSortedKeys(dst, tmp []EdgeKey) ([]EdgeKey, []EdgeKey) {
	start := len(dst)
	dst = slices.Grow(dst, t.n)
	for _, s := range t.slots {
		if s.k != 0 {
			dst = append(dst, s.k)
		}
	}
	keys := dst[start:]
	if len(keys) <= smallSortKeys {
		slices.Sort(keys)
		return dst, tmp
	}
	tmp = slices.Grow(tmp[:0], len(keys))[:len(keys)]
	if out := SortEdgeKeys(keys, tmp); &out[0] != &keys[0] {
		copy(keys, out)
	}
	return dst, tmp
}
