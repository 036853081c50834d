package dyngraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"dynlocal/internal/graph"
)

// This file is the streaming half of the trace plane: the wire format of
// Trace (see its doc comment) read and written one round at a time, in
// memory independent of the trace length. StreamEncoder lets a recorder
// spill an arbitrarily long run to disk as it happens; StreamDecoder
// replays a multi-gigabyte trace without ever materializing it, yielding
// each round's validated deltas from reused buffers. Trace.EncodeTraceTo
// and DecodeTrace are thin wrappers over the two, so there is exactly one
// implementation of the wire format.

// decodePrealloc caps the capacity handed to make()/Grow while decoding,
// so a corrupt or hostile header claiming billions of entries cannot
// allocate unbounded memory from a tiny input: beyond the cap, slices
// grow only as fast as actual input is consumed (every claimed entry
// costs at least one input byte, so truncated input fails with
// ErrUnexpectedEOF first).
const decodePrealloc = 1 << 16

// MaxDecodeNodes bounds the node universe a decoded trace may declare.
// Replaying a trace sizes O(n) state — the engine's per-node arrays and
// topology — so without this bound a 14-byte hostile header
// claiming n = 2³¹−1 would defer a multi-gigabyte allocation to the
// first consumer. The bound is a decoder sanity limit for untrusted
// input only — traces built in memory via NewTrace are not restricted —
// and sits far above the simulator's largest experiment sizes.
const MaxDecodeNodes = 1 << 20

// MaxDecodeRounds bounds the round count a decoded trace header may
// declare. The count only paces iteration — no allocation scales with it
// — but consumers size progress reporting, recovery scans and resume
// fast-forwards by it, so a hostile header claiming 2⁶⁴−1 rounds should
// fail at the header, not after hours of Next calls. Far above any real
// recording; in-memory traces are not restricted.
const MaxDecodeRounds = 1 << 32

// TraceRound is one decoded round of a trace stream: the wake set and the
// round's sorted edge diff against the previous round. The slices are
// decoder-owned and reused by the next Next call — consume them within
// the round (exactly what the engine does with an adversary step) or copy
// what must be retained.
//
//dynlint:loan
type TraceRound struct {
	// Round is the 1-based round the deltas describe.
	Round int
	// Wake lists the nodes waking this round.
	//dynlint:loan
	Wake []graph.NodeID
	// Adds and Removes are the round's edge diff against the round
	// before, which Next checks with graph.CheckDiff.
	//dynlint:loan
	//dynlint:sorted
	Adds, Removes []graph.EdgeKey
}

// StreamEncoder writes a trace in the binary wire format one round at a
// time, so a recorder can spill a run to disk as it happens instead of
// accumulating a Trace in memory. The node universe and the number of
// rounds go into the header up front; Close fails if the declared round
// count was not written, since a short stream would decode as truncated.
//
// WriteRound validates each round exactly as the decoder will — wake id
// bounds, and graph.CheckDiff against the replayed edge set — so an
// encoded stream is always decodable and encoder misuse surfaces at the
// write site, not in a later replay.
type StreamEncoder struct {
	w         io.Writer // underlying sink, for Sync's durability barrier
	bw        *bufio.Writer
	n         uint64
	rounds    int
	written   int
	syncEvery int
	present   graph.EdgeTable[struct{}]
	closed    bool
	err       error
	// varint is writeUvarint's scratch: a local array would escape to
	// the heap through bufio's Write, one allocation per varint.
	varint [binary.MaxVarintLen64]byte
}

// NewStreamEncoder starts a trace stream over an n-node universe holding
// exactly rounds rounds, writing the header immediately.
func NewStreamEncoder(w io.Writer, n, rounds int) (*StreamEncoder, error) {
	if n < 0 {
		return nil, fmt.Errorf("dyngraph: negative node universe %d", n)
	}
	if rounds < 0 {
		return nil, fmt.Errorf("dyngraph: negative round count %d", rounds)
	}
	e := &StreamEncoder{
		w:      w,
		bw:     bufio.NewWriter(w),
		n:      uint64(n),
		rounds: rounds,
	}
	if _, err := e.bw.WriteString(traceMagic); err != nil {
		return nil, err
	}
	e.writeUvarint(traceVersion)
	e.writeUvarint(e.n)
	e.writeUvarint(uint64(rounds))
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// WriteRound appends the next round: its wake set and its edge diff
// against the previous round, which must pass graph.CheckDiff. The
// slices are read, not retained.
// Validation errors and write errors are both sticky — after either, the
// stream is unusable and Close reports the first error.
func (e *StreamEncoder) WriteRound(wake []graph.NodeID, adds, removes []graph.EdgeKey) error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return e.fail(errors.New("dyngraph: WriteRound after Close"))
	}
	if e.written >= e.rounds {
		return e.fail(fmt.Errorf("dyngraph: round %d exceeds declared count %d", e.written+1, e.rounds))
	}
	r := e.written + 1
	// Validate the full round before emitting a byte, mirroring the
	// decoder's checks, so a rejected round leaves no partial garbage in
	// the buffered output ahead of the sticky error.
	for _, v := range wake {
		if uint64(uint32(v)) >= e.n || v < 0 {
			return e.fail(fmt.Errorf("dyngraph: trace round %d: wake id %d outside [0,%d)", r, v, e.n))
		}
	}
	if err := applyTraceDiff(&e.present, int(e.n), r, adds, removes); err != nil {
		return e.fail(err)
	}
	e.writeUvarint(uint64(len(wake)))
	for _, v := range wake {
		e.writeUvarint(uint64(uint32(v)))
	}
	e.writeEdgeList(adds)
	e.writeEdgeList(removes)
	e.written++
	if e.err == nil && e.syncEvery > 0 && e.written%e.syncEvery == 0 {
		return e.Sync()
	}
	return e.err
}

// Sync is the recorder's durability barrier: it flushes all buffered
// rounds to the underlying writer and, when that writer supports it
// (an *os.File, anything with a `Sync() error` method), forces them to
// stable storage. After Sync returns nil, every round written so far
// survives a crash of the process or the machine — at worst the file is
// torn inside a later, unsynced round, which RecoverTrace truncates back
// to the last complete one. Errors are sticky like write errors.
func (e *StreamEncoder) Sync() error {
	if e.err != nil {
		return e.err
	}
	if err := e.bw.Flush(); err != nil {
		return e.fail(err)
	}
	if s, ok := e.w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return e.fail(err)
		}
	}
	return nil
}

// SyncEvery arranges an automatic Sync after every k written rounds —
// the periodic sync marker of a crash-safe recording. k = 0 (the
// default) disables automatic syncing; Close still flushes. Smaller k
// bounds the number of rounds a crash can lose at the price of an
// fsync's latency every k rounds.
func (e *StreamEncoder) SyncEvery(k int) {
	if k < 0 {
		k = 0
	}
	e.syncEvery = k
}

// Close flushes the stream and fails if fewer rounds than declared were
// written. It does not close the underlying writer.
func (e *StreamEncoder) Close() error {
	if e.err != nil {
		return e.err
	}
	if e.closed {
		return nil
	}
	e.closed = true
	if e.written != e.rounds {
		return e.fail(fmt.Errorf("dyngraph: trace stream closed after %d of %d declared rounds", e.written, e.rounds))
	}
	if err := e.bw.Flush(); err != nil {
		return e.fail(err)
	}
	return nil
}

func (e *StreamEncoder) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// applyTraceDiff checks round r's diff against a codec's live edge set
// (graph.CheckDiff) and folds it in.
func applyTraceDiff(present *graph.EdgeTable[struct{}], n, r int, adds, removes []graph.EdgeKey) error {
	if err := graph.CheckDiff(n, adds, removes, present.Has); err != nil {
		return fmt.Errorf("dyngraph: trace round %d %w", r, err)
	}
	present.Reserve(present.Len() + len(adds))
	for _, k := range adds {
		present.Put(k, struct{}{})
	}
	for _, k := range removes {
		present.Delete(k)
	}
	return nil
}

// writeEdgeList emits a strictly ascending key list delta-encoded.
func (e *StreamEncoder) writeEdgeList(keys []graph.EdgeKey) {
	e.writeUvarint(uint64(len(keys)))
	prev := uint64(0)
	for _, k := range keys {
		e.writeUvarint(uint64(k) - prev)
		prev = uint64(k)
	}
}

func (e *StreamEncoder) writeUvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.varint[:], v)
	if _, err := e.bw.Write(e.varint[:n]); err != nil {
		e.err = err
	}
}

// StreamDecoder reads a trace from the binary wire format one round at a
// time: memory use is bounded by the largest single round plus the live
// edge set, independent of how many rounds the stream holds, so traces
// far larger than memory replay fine. The input is treated as untrusted
// and every check DecodeTrace performs is applied incrementally as each
// round is pulled: element counts cannot force oversized allocations,
// node ids are bounds-checked, the delta encoding refuses duplicates,
// and each round's diff passes graph.CheckDiff against the replayed edge
// set — corrupt input yields an error from Next, never a panic in a
// downstream consumer.
type StreamDecoder struct {
	br      *bufio.Reader
	n       uint64
	rounds  uint64
	next    uint64
	present graph.EdgeTable[struct{}]
	cur     TraceRound
	err     error
}

// NewStreamDecoder reads and validates the stream header. The returned
// decoder yields the rounds via Next.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dyngraph: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, errors.New("dyngraph: bad trace magic")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("dyngraph: unsupported trace version %d", version)
	}
	n64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n64 > MaxDecodeNodes {
		return nil, fmt.Errorf("dyngraph: trace node universe %d exceeds decode limit %d", n64, MaxDecodeNodes)
	}
	rounds, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if rounds > MaxDecodeRounds {
		return nil, fmt.Errorf("dyngraph: trace round count %d exceeds decode limit %d", rounds, MaxDecodeRounds)
	}
	// present tracks the replayed edge set, which graph.CheckDiff checks
	// each round's diff against. Downstream delta consumers
	// (adversary.ScriptedStream feeding the engine's adjacency) treat
	// inconsistent diffs as programming errors and panic, so hostile wire
	// input must be rejected here with an error instead. Memory is
	// bounded by the input size — every tracked edge costs at least one
	// encoded byte.
	return &StreamDecoder{br: br, n: n64, rounds: rounds}, nil
}

// N returns the declared node-universe size.
func (d *StreamDecoder) N() int { return int(d.n) }

// Rounds returns the declared round count. Truncated input still fails at
// the Next call that runs out of bytes.
func (d *StreamDecoder) Rounds() int { return int(d.rounds) }

// Next decodes, validates and returns the next round. It returns io.EOF
// once all declared rounds have been yielded, and a descriptive error on
// corrupt or truncated input; any error is sticky. The returned round's
// slices are decoder-owned and valid only until the next call.
//
//dynlint:loan
func (d *StreamDecoder) Next() (*TraceRound, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.next >= d.rounds {
		d.err = io.EOF
		return nil, io.EOF
	}
	r := int(d.next) + 1
	wn, err := binary.ReadUvarint(d.br)
	if err != nil {
		return nil, d.fail(noEOF(err))
	}
	wake := d.cur.Wake[:0]
	if wn < decodePrealloc {
		wake = slices.Grow(wake, int(wn))
	}
	for j := uint64(0); j < wn; j++ {
		v, err := binary.ReadUvarint(d.br)
		if err != nil {
			return nil, d.fail(noEOF(err))
		}
		if v >= d.n {
			return nil, d.fail(fmt.Errorf("dyngraph: trace round %d: wake id %d outside [0,%d)", r, v, d.n))
		}
		wake = append(wake, graph.NodeID(uint32(v)))
	}
	d.cur.Wake = wake
	if d.cur.Adds, err = d.readEdgeList(d.cur.Adds[:0]); err != nil {
		return nil, d.fail(fmt.Errorf("dyngraph: trace round %d added edges: %w", r, err))
	}
	if d.cur.Removes, err = d.readEdgeList(d.cur.Removes[:0]); err != nil {
		return nil, d.fail(fmt.Errorf("dyngraph: trace round %d removed edges: %w", r, err))
	}
	if err := applyTraceDiff(&d.present, int(d.n), r, d.cur.Adds, d.cur.Removes); err != nil {
		return nil, d.fail(err)
	}
	d.next++
	d.cur.Round = r
	return &d.cur, nil
}

// NextDeltas is the adversary-facing replay surface (the method
// adversary.DeltaStreamSource names): the next round's wake set and
// sorted edge diff, io.EOF after the last round. The slices follow the
// same decoder-owned lifetime as Next's.
//
//dynlint:loan
func (d *StreamDecoder) NextDeltas() (wake []graph.NodeID, adds, removes []graph.EdgeKey, err error) {
	tr, err := d.Next()
	if err != nil {
		return nil, nil, nil, err
	}
	return tr.Wake, tr.Adds, tr.Removes, nil
}

func (d *StreamDecoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return d.err
}

// noEOF converts a clean io.EOF from a mid-round read into
// io.ErrUnexpectedEOF: once the header declared more rounds, running out
// of bytes is truncation, and io.EOF is reserved for the clean
// end-of-stream Next reports after the last declared round.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readEdgeList appends one delta-encoded key list into dst, refusing
// what the wire format alone rules out: a short read, a zero delta (a
// duplicate) and overflow. Key bounds are graph.CheckDiff's, in Next.
func (d *StreamDecoder) readEdgeList(dst []graph.EdgeKey) ([]graph.EdgeKey, error) {
	cnt, err := binary.ReadUvarint(d.br)
	if err != nil {
		return dst, noEOF(err)
	}
	if cnt < decodePrealloc {
		dst = slices.Grow(dst, int(cnt))
	}
	prev := uint64(0)
	for i := uint64(0); i < cnt; i++ {
		delta, err := binary.ReadUvarint(d.br)
		if err != nil {
			return dst, noEOF(err)
		}
		if i > 0 && delta == 0 {
			return dst, fmt.Errorf("dyngraph: duplicate edge key %#x in delta encoding", prev)
		}
		if delta > math.MaxUint64-prev {
			return dst, errors.New("dyngraph: edge-key delta overflows")
		}
		prev += delta
		dst = append(dst, graph.EdgeKey(prev))
	}
	return dst, nil
}
