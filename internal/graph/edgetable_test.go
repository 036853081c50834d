package graph

import (
	"slices"
	"testing"

	"dynlocal/internal/prf"
)

// clusteredKeys returns n edge keys whose hash puts them in the last
// eighth of a table of any size: they share probe runs that wrap past
// the last slot, so deletes among them shift long chains.
func clusteredKeys(n int) []EdgeKey {
	var keys []EdgeKey
	for u := NodeID(0); len(keys) < n; u++ {
		for v := u + 1; v < u+64 && len(keys) < n; v++ {
			if k := MakeEdgeKey(u, v); uint64(k)*edgeHashMul>>61 == 7 {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// edgeTablePool is FuzzEdgeTable's key universe: 48 clustered keys and
// 16 spread ones.
var edgeTablePool = func() []EdgeKey {
	keys := clusteredKeys(48)
	for i := NodeID(0); i < 16; i++ {
		keys = append(keys, MakeEdgeKey(i, 1000+7*i))
	}
	return keys
}()

// FuzzEdgeTable runs a script of table operations against a map: each
// pair of bytes is one operation on one pool key. After every operation
// the lengths must agree and every key the map holds must be found with
// its value, so a delete that leaves a hole in a probe run (stranding
// the keys after it) fails at once.
func FuzzEdgeTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 2, 1, 4, 0})
	f.Add([]byte{0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 1, 4, 1, 6, 2, 5, 2, 7, 4, 0})
	f.Add([]byte{5, 0, 1, 9, 0, 50, 3, 0, 0, 50, 4, 0, 6, 40})
	seed := make([]byte, 0, 256)
	for i := 0; i < 48; i++ {
		seed = append(seed, 0, byte(i))
	}
	for i := 0; i < 48; i += 3 {
		seed = append(seed, 1, byte(i))
	}
	f.Add(append(seed, 4, 0))
	f.Fuzz(func(t *testing.T, script []byte) {
		var tab EdgeTable[uint16]
		ref := make(map[EdgeKey]uint16)
		for i := 0; i+1 < len(script); i += 2 {
			op, arg := script[i]%7, script[i+1]
			k := edgeTablePool[int(arg)%len(edgeTablePool)]
			val := uint16(i)
			switch op {
			case 0:
				tab.Put(k, val)
				ref[k] = val
			case 1:
				_, had := ref[k]
				if got := tab.Delete(k); got != had {
					t.Fatalf("op %d: Delete(%v) = %v, want %v", i/2, k, got, had)
				}
				delete(ref, k)
			case 2:
				v, ok := tab.Get(k)
				if want, had := ref[k]; v != want || ok != had || tab.Has(k) != had {
					t.Fatalf("op %d: Get(%v) = (%d, %v), want (%d, %v)", i/2, k, v, ok, want, had)
				}
			case 3:
				tab.Clear()
				clear(ref)
			case 4:
				checkSortedKeys(t, &tab, ref)
			case 5:
				tab.Reserve(int(arg))
			case 6:
				// A bulk load past the comparison-sort cutoff, so the
				// sorted walk takes the radix path.
				for j := 0; j < smallSortKeys+int(arg); j++ {
					bk := MakeEdgeKey(NodeID(j), NodeID(j+1+int(arg)))
					tab.Put(bk, val)
					ref[bk] = val
				}
				checkSortedKeys(t, &tab, ref)
			}
			if tab.Len() != len(ref) {
				t.Fatalf("op %d: Len = %d, want %d", i/2, tab.Len(), len(ref))
			}
			for rk, rv := range ref {
				if v, ok := tab.Get(rk); !ok || v != rv {
					t.Fatalf("op %d: key %v reads (%d, %v), want (%d, true)", i/2, rk, v, ok, rv)
				}
			}
		}
		checkSortedKeys(t, &tab, ref)
	})
}

// checkSortedKeys requires AppendSortedKeys to append exactly ref's keys
// ascending after a prefix it leaves alone.
func checkSortedKeys(t *testing.T, tab *EdgeTable[uint16], ref map[EdgeKey]uint16) {
	t.Helper()
	want := make([]EdgeKey, 0, len(ref))
	for k := range ref {
		want = append(want, k)
	}
	slices.Sort(want)
	prefix := EdgeKey(1<<62 | 1)
	got, _ := tab.AppendSortedKeys([]EdgeKey{prefix}, nil)
	if got[0] != prefix || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendSortedKeys = %v, want [%v] + %v", got, prefix, want)
	}
}

// TestEdgeTableSortedKeysLarge checks the radix path of the sorted walk,
// with the scratch buffer reused across calls: every key once, ascending.
func TestEdgeTableSortedKeysLarge(t *testing.T) {
	var tab EdgeTable[struct{}]
	s := prf.NewStream(3, 0, 0, prf.PurposeWorkload)
	var keys, tmp []EdgeKey
	for _, n := range []int{300, 5000, 70000} {
		for tab.Len() < n {
			u, v := NodeID(s.Intn(1<<16)), NodeID(s.Intn(1<<16))
			if u != v {
				tab.Put(MakeEdgeKey(u, v), struct{}{})
			}
		}
		keys, tmp = tab.AppendSortedKeys(keys[:0], tmp)
		if len(keys) != n {
			t.Fatalf("n=%d: the walk yields %d keys", n, len(keys))
		}
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("n=%d: keys %v, %v out of order", n, keys[i-1], keys[i])
			}
		}
		for _, k := range keys {
			if !tab.Has(k) {
				t.Fatalf("n=%d: walked key %v is not in the table", n, k)
			}
		}
	}
}

// TestEdgeTableZeroKey pins that key 0, the empty-slot marker, is never
// found and cannot be stored.
func TestEdgeTableZeroKey(t *testing.T) {
	var tab EdgeTable[int]
	tab.Put(MakeEdgeKey(0, 1), 1)
	if tab.Has(0) || tab.Delete(0) {
		t.Fatal("key 0 reads as present")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put of key 0 succeeded")
		}
	}()
	tab.Put(0, 2)
}
