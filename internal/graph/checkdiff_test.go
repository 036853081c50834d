package graph_test

import (
	"slices"
	"testing"

	"dynlocal/internal/graph"
	"dynlocal/internal/graph/graphtest"
)

// checkDiffRule maps CheckDiff's verdicts onto the model's rule names.
var checkDiffRule = map[graph.DiffKind]string{
	graph.DiffUnsorted:     "unsorted",
	graph.DiffNotCanonical: "not canonical",
	graph.DiffOutside:      "outside universe",
	graph.DiffBoth:         "added and removed",
	graph.DiffPresentAdd:   "present add",
	graph.DiffAbsentRemove: "absent remove",
}

// fuzzKeys decodes one byte per key over the endpoints [0,8): with a
// 6-node universe that yields canonical, non-canonical and
// out-of-universe keys. sorted sorts and dedupes the list.
func fuzzKeys(b []byte, sorted bool) []graph.EdgeKey {
	keys := make([]graph.EdgeKey, len(b))
	for i, x := range b {
		keys[i] = graph.EdgeKey(uint64(x>>4&7)<<32 | uint64(x&7))
	}
	if sorted {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	return keys
}

// FuzzCheckDiff holds CheckDiff to the graphtest model over random
// pre-round edge sets and diffs in a 6-node universe: both must accept
// the same diffs, and on a refused one name the same rule, list and
// first failing key. data[0] and data[1] size the pre-round set and the
// adds; the rest are the removes. flags sorts the adds (bit 0) or the
// removes (bit 1), so the later rules are reached too.
func FuzzCheckDiff(f *testing.F) {
	f.Add(uint8(3), []byte{2, 1, 0x01, 0x23, 0x02, 0x01})                   // valid
	f.Add(uint8(3), []byte{1, 1, 0x01, 0x02, 0x02})                         // phantom
	f.Add(uint8(3), []byte{1, 1, 0x01, 0x01, 0x01})                         // mirror
	f.Add(uint8(0), []byte{0, 2, 0x03, 0x02})                               // unsorted adds
	f.Add(uint8(3), []byte{0, 1, 0x17})                                     // outside the universe
	f.Add(uint8(3), []byte{0, 1, 0x31})                                     // not canonical
	f.Add(uint8(3), []byte{1, 1, 0x01, 0x01})                               // present add
	f.Add(uint8(3), []byte{1, 0, 0x01, 0x02})                               // absent remove
	f.Add(uint8(1), []byte{3, 3, 0x01, 0x12, 0x45, 0x02, 0x13, 0x45, 0x12}) // present add before absent remove
	f.Fuzz(func(t *testing.T, flags uint8, data []byte) {
		const n = 6
		if len(data) < 2 {
			return
		}
		nPre, nAdds := int(data[0]%16), int(data[1]%16)
		rest := data[2:]
		pre := fuzzKeys(rest[:min(nPre, len(rest))], true)
		rest = rest[min(nPre, len(rest)):]
		adds := fuzzKeys(rest[:min(nAdds, len(rest))], flags&1 != 0)
		removes := fuzzKeys(rest[min(nAdds, len(rest)):], flags&2 != 0)

		m := graphtest.NewDiffModel(n)
		pre = slices.DeleteFunc(pre, func(k graph.EdgeKey) bool { return m.Check([]graph.EdgeKey{k}, nil) != nil })
		m.Step(t, pre, nil)
		has := func(k graph.EdgeKey) bool {
			if u, v := k.Nodes(); u < 0 || u >= v || v >= n {
				t.Fatalf("has called on %v, which is no edge of the universe", k)
			}
			return m.Has(k)
		}
		compare := func(what string, err error, want *graphtest.Fault) {
			t.Helper()
			if want == nil {
				if err != nil {
					t.Fatalf("%s: CheckDiff(%v, %v) = %v, the model accepts", what, adds, removes, err)
				}
				return
			}
			de, ok := err.(*graph.DiffError)
			if !ok {
				t.Fatalf("%s: CheckDiff(%v, %v) = %v, the model refuses with %v", what, adds, removes, err, want)
			}
			list := "adds"
			if de.Removes || de.Kind == graph.DiffAbsentRemove {
				list = "removes"
			}
			if checkDiffRule[de.Kind] != want.Rule || list != want.List || de.Key != want.Key {
				t.Fatalf("%s: CheckDiff(%v, %v) = %v, the model refuses with %v", what, adds, removes, err, want)
			}
		}
		compare("pre-round set", graph.CheckDiff(n, adds, removes, has), m.Check(adds, removes))
		compare("empty set", graph.CheckDiff(n, adds, removes, nil), graphtest.NewDiffModel(n).Check(adds, removes))
	})
}

// TestCheckDiffAllocs pins that an accepted diff costs no allocation,
// has closure included: every round of the engine and the windows runs
// the check.
func TestCheckDiffAllocs(t *testing.T) {
	var present graph.EdgeTable[struct{}]
	present.Put(graph.MakeEdgeKey(0, 1), struct{}{})
	adds := []graph.EdgeKey{graph.MakeEdgeKey(0, 2), graph.MakeEdgeKey(1, 2)}
	removes := []graph.EdgeKey{graph.MakeEdgeKey(0, 1)}
	allocs := testing.AllocsPerRun(100, func() {
		if err := graph.CheckDiff(4, adds, removes, func(k graph.EdgeKey) bool { return present.Has(k) }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CheckDiff allocates %.1f times per accepted diff, want 0", allocs)
	}
}
