package dynlocal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynlocal/internal/adversary"
	"dynlocal/internal/ckpt"
	"dynlocal/internal/engine"
	"dynlocal/internal/prf"
)

var updateChainGolden = flag.Bool("update", false, "rewrite the golden chain fixture under testdata/")

// The composed-chain scenario: a combined MIS run under churn with the
// T-dynamic checker fed from the engine's round-delta plane — the exact
// pairing WriteCheckpointChain/ReadCheckpointChain is documented for.
const (
	chainN      = 128
	chainRounds = 24
	chainBase   = 4
	chainStride = 3
)

func newComposedRun(workers int) (*Engine, *TDynamicChecker, *[]TDynamicReport) {
	algo := NewMIS(chainN)
	adv := NewChurn(GNP(chainN, 8.0/float64(chainN), 11), 6, 6, 12)
	eng := NewEngine(EngineConfig{N: chainN, Seed: 5, Workers: workers}, adv, algo)
	chk := NewTDynamicChecker(MISProblem(), algo.T1, chainN)
	reports := new([]TDynamicReport)
	eng.OnRound(func(info *RoundInfo) {
		rep := chk.Feed(info.Delta())
		rep.PackingViolations = slices.Clone(rep.PackingViolations)
		rep.CoverViolations = slices.Clone(rep.CoverViolations)
		*reports = append(*reports, rep)
	})
	return eng, chk, reports
}

func checkerTotals(c *TDynamicChecker) [5]int {
	rounds, invalid, packing, cover, bot := c.Totals()
	return [5]int{rounds, invalid, packing, cover, bot}
}

// buildComposedChain plays the reference run, starting a chain at round
// chainBase and appending a delta every chainStride rounds. It returns
// the per-round reports, the final checker totals, the chain prefix
// after each record, and the round each record was taken at.
func buildComposedChain(t testing.TB) (refReports []TDynamicReport, refTotals [5]int, prefixes [][]byte, recRounds []int) {
	t.Helper()
	eng, chk, reports := newComposedRun(1)
	var chain bytes.Buffer
	for r := 1; r <= chainRounds; r++ {
		eng.Step()
		switch {
		case r == chainBase:
			if err := WriteCheckpointChain(&chain, eng, chk); err != nil {
				t.Fatalf("base record at round %d: %v", r, err)
			}
		case r > chainBase && (r-chainBase)%chainStride == 0:
			if err := AppendCheckpointDelta(&chain, eng, chk); err != nil {
				t.Fatalf("delta record at round %d: %v", r, err)
			}
		default:
			continue
		}
		prefixes = append(prefixes, slices.Clone(chain.Bytes()))
		recRounds = append(recRounds, r)
	}
	return *reports, checkerTotals(chk), prefixes, recRounds
}

// resumeComposed restores a chain prefix into a fresh run and replays to
// the end, returning the post-restore reports and final totals.
func resumeComposed(t *testing.T, prefix []byte, workers int, arena *RestoreArena) (at int, reports []TDynamicReport, tot [5]int) {
	t.Helper()
	eng, chk, rep := newComposedRun(workers)
	if err := ReadCheckpointChain(bytes.NewReader(prefix), eng, chk, arena); err != nil {
		t.Fatalf("restore chain prefix: %v", err)
	}
	at = eng.Round()
	for eng.Round() < chainRounds {
		eng.Step()
	}
	return at, *rep, checkerTotals(chk)
}

// TestComposedChainResumeEveryPrefix is the facade-level chain
// equivalence property: restoring every prefix of a composed
// engine+checker chain — with and without an arena, under worker counts
// 1 and 4 — and replaying to the end must reproduce the uninterrupted
// run's T-dynamic reports round for round and its final totals.
func TestComposedChainResumeEveryPrefix(t *testing.T) {
	refReports, refTotals, prefixes, recRounds := buildComposedChain(t)
	arena := NewRestoreArena()
	for i, prefix := range prefixes {
		for _, workers := range []int{1, 4} {
			// The arena owns one restored run at a time: Reset only
			// after the previous restore's engine and checker are dropped.
			var a *RestoreArena
			if i%2 == 1 {
				arena.Reset()
				a = arena
			}
			at, reports, tot := resumeComposed(t, prefix, workers, a)
			if at != recRounds[i] {
				t.Fatalf("prefix %d: restored at round %d, want %d", i, at, recRounds[i])
			}
			want := refReports[recRounds[i]:]
			if len(reports) != len(want) {
				t.Fatalf("prefix %d workers %d: %d resumed reports, want %d", i, workers, len(reports), len(want))
			}
			for j := range want {
				if !reflect.DeepEqual(reports[j], want[j]) {
					t.Fatalf("prefix %d workers %d: round %d report diverges:\nwant %+v\ngot  %+v",
						i, workers, recRounds[i]+j+1, want[j], reports[j])
				}
			}
			if tot != refTotals {
				t.Fatalf("prefix %d workers %d: totals %v, want %v", i, workers, tot, refTotals)
			}
		}
	}
}

// TestReadCheckpointArenaEquivalence pins the one-record chain arena
// path: a base written mid-run and restored through ReadCheckpointChain
// with an arena must resume exactly like the uninterrupted run, and one
// arena must be reusable across sequential restores via Reset.
func TestReadCheckpointArenaEquivalence(t *testing.T) {
	const ckAt = 10
	eng, chk, reports := newComposedRun(1)
	var ck bytes.Buffer
	for r := 1; r <= chainRounds; r++ {
		eng.Step()
		if r == ckAt {
			if err := WriteCheckpointChain(&ck, eng, chk); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	refReports, refTotals := *reports, checkerTotals(chk)

	arena := NewRestoreArena()
	for attempt := 0; attempt < 2; attempt++ {
		arena.Reset()
		eng2, chk2, rep2 := newComposedRun(4)
		if err := ReadCheckpointChain(bytes.NewReader(ck.Bytes()), eng2, chk2, arena); err != nil {
			t.Fatalf("attempt %d: arena restore: %v", attempt, err)
		}
		if eng2.Round() != ckAt {
			t.Fatalf("attempt %d: restored at round %d, want %d", attempt, eng2.Round(), ckAt)
		}
		for eng2.Round() < chainRounds {
			eng2.Step()
		}
		if !reflect.DeepEqual(*rep2, refReports[ckAt:]) {
			t.Fatalf("attempt %d: resumed reports diverge from reference", attempt)
		}
		if got := checkerTotals(chk2); got != refTotals {
			t.Fatalf("attempt %d: totals %v, want %v", attempt, got, refTotals)
		}
	}
}

// baseRecord serializes the engine+checker base record — the payload
// WriteCheckpointChain frames — without noting it, so the run's chain
// is left undisturbed.
func baseRecord(t testing.TB, eng *Engine, chk *TDynamicChecker) []byte {
	t.Helper()
	w := ckpt.NewWriter(nil)
	eng.CheckpointTo(w, true)
	chk.SaveDelta(w, true)
	if err := w.Close(); err != nil {
		t.Fatalf("base record: %v", err)
	}
	return w.Bytes()
}

// TestComposedChainCanonicalBase requires every chain prefix to restore
// to exactly the state the uninterrupted run had at that round: a base
// rewritten from the restored pair equals, byte for byte, the base the
// uninterrupted run writes at the prefix's last round.
func TestComposedChainCanonicalBase(t *testing.T) {
	eng, chk, _ := newComposedRun(1)
	var chain bytes.Buffer
	var prefixes, bases [][]byte
	for r := 1; r <= chainRounds; r++ {
		eng.Step()
		if r < chainBase || (r-chainBase)%chainStride != 0 {
			continue
		}
		bases = append(bases, baseRecord(t, eng, chk))
		if err := eng.WriteRecord(&chain, r == chainBase, chk); err != nil {
			t.Fatalf("record at round %d: %v", r, err)
		}
		prefixes = append(prefixes, slices.Clone(chain.Bytes()))
	}
	for i, prefix := range prefixes {
		eng2, chk2, _ := newComposedRun(1)
		if err := ReadCheckpointChain(bytes.NewReader(prefix), eng2, chk2, nil); err != nil {
			t.Fatalf("prefix %d: restore: %v", i, err)
		}
		if got := baseRecord(t, eng2, chk2); !bytes.Equal(got, bases[i]) {
			t.Fatalf("prefix %d: rewritten base (%d bytes) differs from the uninterrupted run's (%d bytes)", i, len(got), len(bases[i]))
		}
	}
}

// TestComposedChainGolden pins the chain container bytes: the scenario
// is fully deterministic, so the complete chain must match the checked-in
// fixture bit for bit. Regenerate with
//
//	go test -run TestComposedChainGolden -update
//
// after an intentional format change, keep the previous fixture as a
// refusal fixture, and call out the change in docs/checkpointing.md.
func TestComposedChainGolden(t *testing.T) {
	_, _, prefixes, recRounds := buildComposedChain(t)
	got := prefixes[len(prefixes)-1]
	path := filepath.Join("testdata", "chain_v2_mis_n128.golden")
	if *updateChainGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chain bytes diverge from golden: %d bytes vs %d — rerun with -update if the format change is intentional", len(got), len(want))
	}

	// The checked-in fixture must still restore.
	eng, chk, _ := newComposedRun(1)
	if err := ReadCheckpointChain(bytes.NewReader(want), eng, chk, nil); err != nil {
		t.Fatalf("golden chain restore: %v", err)
	}
	if last := recRounds[len(recRounds)-1]; eng.Round() != last {
		t.Fatalf("golden chain restored at round %d, want %d", eng.Round(), last)
	}
}

// TestRetiredChainGoldenRefused pins the refusal of the retired record
// format: the fixture the previous format wrote for the same scenario
// must fail with engine.ErrRetiredFormat, never restore or panic.
func TestRetiredChainGoldenRefused(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "chain_v1_mis_n128.golden"))
	if err != nil {
		t.Fatal(err)
	}
	eng, chk, _ := newComposedRun(1)
	if err := ReadCheckpointChain(bytes.NewReader(old), eng, chk, nil); !errors.Is(err, engine.ErrRetiredFormat) {
		t.Fatalf("restore of a retired-format chain: err = %v, want ErrRetiredFormat", err)
	}
}

// TestAdaptiveAdversariesRefuseCheckpoints requires the adaptive
// adversaries, whose hidden state a resume cannot carry, to fail the
// checkpoint writer with adversary.ErrNotCheckpointable and leave the
// run's chain untouched.
func TestAdaptiveAdversariesRefuseCheckpoints(t *testing.T) {
	const n = 64
	g := GNP(n, 6.0/float64(n), 3)
	for name, mk := range map[string]func() (Adversary, Algorithm){
		"conflict-injector": func() (Adversary, Algorithm) {
			return &ConflictInjector{Inner: NewChurn(g, 2, 2, 4), Rate: 2, Seed: 5}, NewMIS(n)
		},
		"clairvoyant": func() (Adversary, Algorithm) {
			return &ClairvoyantAdversary{Base: g, Seed: 7, Purpose: prf.PurposeLubyAlpha}, NewDMis(n)
		},
	} {
		t.Run(name, func(t *testing.T) {
			adv, algo := mk()
			eng := NewEngine(EngineConfig{N: n, Seed: 7, Workers: 1}, adv, algo)
			chk := NewTDynamicChecker(MISProblem(), 8, n)
			eng.OnRound(func(info *RoundInfo) { chk.Feed(info.Delta()) })
			eng.Run(3)
			var buf bytes.Buffer
			if err := WriteCheckpointChain(&buf, eng, chk); !errors.Is(err, adversary.ErrNotCheckpointable) {
				t.Fatalf("WriteCheckpointChain: err = %v, want ErrNotCheckpointable", err)
			}
			if buf.Len() != 0 || eng.ChainSeq() != 0 {
				t.Fatalf("refused checkpoint wrote %d bytes, chain at record %d", buf.Len(), eng.ChainSeq())
			}
		})
	}
}

// FuzzReadCheckpointChain feeds arbitrary bytes to the composed run's
// chain reader. A rejected input must fail with an error, never a panic
// or an oversized allocation. An accepted one must be canonical — a base
// rewritten from the restored run restores, and rewriting a base from
// that restore gives the same bytes — and the restored run must play one
// more round.
func FuzzReadCheckpointChain(f *testing.F) {
	addChainSeeds(f)
	f.Fuzz(checkReadChain)
}

// FuzzReadResealedCheckpointChain is FuzzReadCheckpointChain over
// resealed input: before the read, every record of the mutated chain
// gets a fresh length prefix and CRC-32 trailer, and every record after
// the first names the CRC of the record before it as its parent. Most
// mutations then get past the framing and the chain linkage and reach
// the validators of the record's sections.
func FuzzReadResealedCheckpointChain(f *testing.F) {
	addChainSeeds(f)
	f.Fuzz(func(t *testing.T, chain []byte) {
		checkReadChain(t, resealChain(chain))
	})
}

// addChainSeeds seeds a chain fuzz target with the golden chains and
// every prefix of the composed chain.
func addChainSeeds(f *testing.F) {
	for _, name := range []string{"chain_v2_mis_n128.golden", "chain_v1_mis_n128.golden"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	_, _, prefixes, _ := buildComposedChain(f)
	for _, p := range prefixes {
		f.Add(p)
	}
}

// checkReadChain reads chain into a fresh composed run and, when it is
// accepted, checks that the restored state is canonical and can step.
func checkReadChain(t *testing.T, chain []byte) {
	eng, chk, _ := newComposedRun(1)
	if ReadCheckpointChain(bytes.NewReader(chain), eng, chk, nil) != nil {
		return
	}
	rewrite := func(eng *Engine, chk *TDynamicChecker) []byte {
		var buf bytes.Buffer
		if err := WriteCheckpointChain(&buf, eng, chk); err != nil {
			t.Fatalf("base rewrite of an accepted chain: %v", err)
		}
		return buf.Bytes()
	}
	first := rewrite(eng, chk)
	eng2, chk2, _ := newComposedRun(1)
	if err := ReadCheckpointChain(bytes.NewReader(first), eng2, chk2, nil); err != nil {
		t.Fatalf("rewritten base does not restore: %v", err)
	}
	if second := rewrite(eng2, chk2); !bytes.Equal(first, second) {
		t.Fatalf("base rewrite is not canonical: %d bytes, then %d", len(first), len(second))
	}
	eng.Step()
}

// TestResealChainIdentity pins the resealing fuzz's framing: an intact
// chain reseals to itself.
func TestResealChainIdentity(t *testing.T) {
	_, _, prefixes, _ := buildComposedChain(t)
	for i, p := range prefixes {
		if !bytes.Equal(resealChain(p), p) {
			t.Fatalf("prefix %d changed when resealed", i)
		}
	}
}

// TestReadChainRefusesDenseFlag: a base record's configuration block
// keeps the flag of the retired dense round walk, always written false.
// A base with the flag set, resealed so its CRC holds, is refused by
// name.
func TestReadChainRefusesDenseFlag(t *testing.T) {
	_, _, prefixes, _ := buildComposedChain(t)
	chain := slices.Clone(prefixes[0])
	_, k := binary.Uvarint(chain[len(ckpt.ChainMagic):])
	start := len(ckpt.ChainMagic) + k
	flag := start + denseFlagOffset(chain[start:])
	if chain[flag] != 0 {
		t.Fatalf("dense flag byte at %d is %d, want 0", flag, chain[flag])
	}
	chain[flag] = 1
	eng, chk, _ := newComposedRun(1)
	err := ReadCheckpointChain(bytes.NewReader(resealChain(chain)), eng, chk, nil)
	if err == nil || !strings.Contains(err.Error(), "retired dense walk") {
		t.Fatalf("base with the dense flag set read with err = %v", err)
	}
}

// denseFlagOffset returns the offset of the dense flag in a base
// record's payload. It follows the record magic, the header tag,
// sequence number, parent fingerprint, parent round and round, then the
// algorithm name, N, seed and output lag.
func denseFlagOffset(payload []byte) int {
	off := 0
	skip := func(str bool) {
		n, k := binary.Uvarint(payload[off:])
		off += k
		if str {
			off += int(n)
		}
	}
	skip(true)
	for range 5 {
		skip(false)
	}
	skip(true)
	for range 3 {
		skip(false)
	}
	return off
}

// resealChain re-frames the records of a chain: each keeps its framed
// bytes minus the last four, gets the CRC-32 of those as a new trailer
// and a new length prefix, and, after the first, the CRC of the record
// before it in its header's parent field. A length prefix that overruns
// the input takes what is left; bytes that do not frame a record are
// dropped. Input without the chain magic is returned as it is.
func resealChain(chain []byte) []byte {
	rest, ok := bytes.CutPrefix(chain, []byte(ckpt.ChainMagic))
	if !ok {
		return chain
	}
	out := []byte(ckpt.ChainMagic)
	var parent uint32
	for i := 0; len(rest) > 0; i++ {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			break
		}
		rest = rest[k:]
		n = min(n, uint64(len(rest)))
		payload := slices.Clone(rest[:max(int(n)-4, 0)])
		rest = rest[n:]
		if i > 0 {
			payload = setParentField(payload, parent)
		}
		parent = crc32.ChecksumIEEE(payload)
		out = binary.AppendUvarint(out, uint64(len(payload)+4))
		out = binary.LittleEndian.AppendUint32(append(out, payload...), parent)
	}
	return out
}

// setParentField replaces the parent fingerprint in a record's header —
// the fourth field, after the record magic, the header tag and the
// sequence number — with sum. A payload too short to hold the field is
// returned as it is.
func setParentField(payload []byte, sum uint32) []byte {
	n, k := binary.Uvarint(payload)
	if k <= 0 || n > uint64(len(payload)-k) {
		return payload
	}
	off := k + int(n)
	for field := 0; field < 3; field++ {
		_, k := binary.Uvarint(payload[off:])
		if k <= 0 {
			return payload
		}
		if field < 2 {
			off += k
			continue
		}
		tail := payload[off+k:]
		return append(binary.AppendUvarint(payload[:off:off], uint64(sum)), tail...)
	}
	return payload
}

// coloringChainSHA256 is the SHA-256 of the chain
// TestColoringChainBytesPinned writes: a base record of a combined
// coloring run at round 20 and a delta at round 23.
const coloringChainSHA256 = "196bc8a6e1845694ce6f29775516fd6d7eb54a824de214553afb0ec84bce6446"

// TestColoringChainBytesPinned pins the coloring side of the record
// format the way TestComposedChainGolden pins the MIS side: the Concat
// pipeline, DColor's streak table and palette and SColor's palette must
// serialize to the same bytes, run after run and release after release.
func TestColoringChainBytesPinned(t *testing.T) {
	const n = 128
	eng := NewEngine(EngineConfig{N: n, Seed: 5, Workers: 1}, NewChurn(GNP(n, 8.0/float64(n), 11), 6, 6, 12), NewColoring(n))
	var chain bytes.Buffer
	eng.Run(20)
	if err := WriteCheckpointChain(&chain, eng, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run(3)
	if err := AppendCheckpointDelta(&chain, eng, nil); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(chain.Bytes())); got != coloringChainSHA256 {
		t.Fatalf("coloring chain (%d bytes) has SHA-256 %s, want %s", chain.Len(), got, coloringChainSHA256)
	}
}

// roundTrace is one round of a run as TestP2PMISResumeMidFill compares
// it: the output snapshot, sub-messages and changed nodes.
type roundTrace struct {
	outputs  []Value
	messages int
	changed  []NodeID
}

// TestP2PMISResumeMidFill resumes combined MIS under P2P session churn
// from records taken while the Concat pipelines are still filling: a
// base and two deltas, all before round T1-1, each leaving the
// pipelines part way through an instance block. A resumed pipeline
// keeps filling from new blocks, so the resumed rounds, through the
// fill and beyond, must match the uninterrupted run's outputs,
// Messages and Changed round for round.
func TestP2PMISResumeMidFill(t *testing.T) {
	const n, rounds = 512, 56
	newRun := func() (*Engine, *[]roundTrace) {
		adv := &P2PChurnAdversary{N: n, Init: 64, JoinPerRound: 4, Seed: 19}
		eng := NewEngine(EngineConfig{N: n, Seed: 3, Workers: 1}, adv, NewMIS(n))
		tr := new([]roundTrace)
		eng.OnRound(func(info *RoundInfo) {
			*tr = append(*tr, roundTrace{slices.Clone(info.Outputs), info.Messages, slices.Clone(info.Changed)})
		})
		return eng, tr
	}
	t1 := NewMIS(n).T1
	recAt := []int{5, 13, 22}
	if last := recAt[len(recAt)-1]; last >= t1-1 || rounds <= t1 {
		t.Fatalf("records up to round %d and %d rounds do not straddle the fill (T1 = %d)", last, rounds, t1)
	}
	eng, ref := newRun()
	var chain bytes.Buffer
	var prefixes [][]byte
	for r := 1; r <= rounds; r++ {
		eng.Step()
		if !slices.Contains(recAt, r) {
			continue
		}
		var err error
		if r == recAt[0] {
			err = WriteCheckpointChain(&chain, eng, nil)
		} else {
			err = AppendCheckpointDelta(&chain, eng, nil)
		}
		if err != nil {
			t.Fatalf("record at round %d: %v", r, err)
		}
		prefixes = append(prefixes, slices.Clone(chain.Bytes()))
	}
	for i, prefix := range prefixes {
		eng2, got := newRun()
		if err := ReadCheckpointChain(bytes.NewReader(prefix), eng2, nil, nil); err != nil {
			t.Fatalf("prefix %d: restore: %v", i, err)
		}
		if eng2.Round() != recAt[i] {
			t.Fatalf("prefix %d: restored at round %d, want %d", i, eng2.Round(), recAt[i])
		}
		eng2.Run(rounds - recAt[i])
		want := (*ref)[recAt[i]:]
		if len(*got) != len(want) {
			t.Fatalf("prefix %d: %d resumed rounds, want %d", i, len(*got), len(want))
		}
		for j, w := range want {
			g := (*got)[j]
			if !slices.Equal(g.outputs, w.outputs) || g.messages != w.messages || !slices.Equal(g.changed, w.changed) {
				t.Fatalf("prefix %d: round %d diverges: %d messages, %d changed; want %d messages, %d changed",
					i, recAt[i]+j+1, g.messages, len(g.changed), w.messages, len(w.changed))
			}
		}
	}
}
