// Package ckpt provides the low-level wire primitives for checkpoint
// records: a sticky-error varint Writer/Reader pair with section tags
// and a trailing CRC-32 so torn or corrupted checkpoints are detected
// on restore instead of silently resuming from garbage.
//
// A record is a flat sequence of varints (plus raw byte runs for
// strings) produced by one Writer and consumed by one Reader; both ends
// must agree on the exact field sequence, which is enforced loosely by
// interleaved section tags and strictly by the checksum. All encoding
// is deterministic: the same state always serializes to the same bytes,
// so checkpoint artifacts can be compared bit-for-bit.
//
// A record is encoded and decoded in memory. The Writer appends to a
// caller-owned byte slice and computes the CRC-32 once, over the whole
// record, when it closes; the Reader decodes straight from a record
// slice and checks the trailer with one CRC pass on Close. The chain
// container (chain.go) moves whole records between memory and I/O.
//
// Both types latch the first error and turn every later read into a
// zero value, so callers serialize whole structures without per-field
// error checks and inspect Err (or Close) once at the end.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrChecksum is returned by Reader.Close when the stream's trailing
// CRC-32 does not match the bytes read, i.e. the checkpoint is torn or
// corrupted.
var ErrChecksum = errors.New("ckpt: checksum mismatch")

// errOverflow reports a varint whose value does not fit 64 bits.
var errOverflow = errors.New("ckpt: varint overflows uint64")

// Stater is implemented by components whose mutable state round-trips
// through a checkpoint stream. SaveState appends the state as a fixed
// field sequence; LoadState consumes the same sequence into an
// already-constructed value (same configuration, fresh mutable state).
// Errors — wire-level or semantic (via Reader.Fail) — travel on the
// stream's sticky error, checked once by the caller.
type Stater interface {
	SaveState(w *Writer)
	LoadState(r *Reader)
}

// maxBytes caps declared byte-run lengths (strings); checkpoint
// sections carry short identifiers only, so anything larger is
// corruption, not data.
const maxBytes = 1 << 20

// Writer encodes one record into a byte slice. Fields are appended
// without checksumming; Close computes the CRC-32 of the whole record
// and appends it as the trailer.
type Writer struct {
	buf    []byte
	crc    uint32
	err    error
	prefix [binary.MaxVarintLen64]byte // chain framing scratch (AppendChainRecord)
}

// NewWriter returns a writer that encodes a record into buf's storage,
// from buf[:0]; the zero Writer starts from no storage. The slice grows
// by doubling, so a writer reused across records (Reset) stops
// allocating once it has held the largest one.
func NewWriter(buf []byte) *Writer {
	return &Writer{buf: buf[:0]}
}

// Reset starts a new record in w's storage, dropping the previous
// record and any latched error.
func (w *Writer) Reset() { *w = Writer{buf: w.buf[:0]} }

// reserve makes room for n more bytes, at least doubling the capacity
// when it grows: append's 1.25× steps for large slices would copy a
// multi-megabyte base record many times over.
func (w *Writer) reserve(n int) {
	if cap(w.buf)-len(w.buf) >= n {
		return
	}
	nb := make([]byte, len(w.buf), 2*cap(w.buf)+n)
	copy(nb, w.buf)
	w.buf = nb
}

// Uvarint appends one unsigned varint field.
func (w *Writer) Uvarint(v uint64) {
	w.reserve(binary.MaxVarintLen64)
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends one signed (zig-zag) varint field.
func (w *Writer) Varint(v int64) {
	w.reserve(binary.MaxVarintLen64)
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool appends a bool as a 0/1 varint.
func (w *Writer) Bool(b bool) {
	w.reserve(1)
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float64 appends a float64 by its IEEE-754 bit pattern, so the exact
// value (including -0 and NaN payloads) round-trips.
func (w *Writer) Float64(f float64) { w.Uvarint(math.Float64bits(f)) }

// String appends a length-prefixed byte string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.reserve(len(s))
	w.buf = append(w.buf, s...)
}

// Section appends a section tag. Tags carry no data; the matching
// Reader.Section call fails fast when writer and reader disagree about
// the field sequence, turning subtle misalignment into a crisp error.
func (w *Writer) Section(tag uint64) { w.Uvarint(tag) }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Sum32 returns the record's CRC-32 as computed by Close, the trailer
// value (zero before Close). Chain writers use it as the
// parent-linkage fingerprint of a record (see chain.go).
func (w *Writer) Sum32() uint32 { return w.crc }

// Bytes returns the record: the fields written so far, and after Close
// the trailer too. It aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Fail latches err as the record's error if none is set yet, mirroring
// Reader.Fail for semantic failures discovered while serializing (e.g.
// a component that does not support checkpointing). A failed record
// must be discarded: Close returns the error instead of sealing it.
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Close computes the CRC-32 of the record, appends it as the trailer
// (4 bytes little-endian, not included in its own checksum) and returns
// nil, or returns the first error latched by Fail without sealing.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	w.crc = crc32.ChecksumIEEE(w.buf)
	w.reserve(4)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, w.crc)
	return nil
}

// Reader decodes a record produced by Writer straight from its bytes.
// Close checks the 4-byte trailer after the consumed fields against
// their CRC-32. The first error sticks: all subsequent reads return
// zero values, so callers deserialize whole structures and check Err
// (or Close) once. Bytes after the trailer are not examined.
type Reader struct {
	data []byte
	off  int
	sum  uint32
	err  error
	// arena re-exports the pooled lifetime of the attached RestoreArena:
	// state restored through this reader is valid only until the arena's
	// owner calls Reset.
	//
	//dynlint:loan
	arena *RestoreArena
}

// NewReader returns a checkpoint reader over the record rec. The
// reader never writes rec or retains parts of it in decoded values.
func NewReader(rec []byte) *Reader {
	return &Reader{data: rec}
}

// Uvarint reads one unsigned varint field.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 || r.err != nil {
		r.fault(n)
		return 0
	}
	r.off += n
	return v
}

// Varint reads one signed (zig-zag) varint field.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 || r.err != nil {
		r.fault(n)
		return 0
	}
	r.off += n
	return v
}

// fault latches the failure of a varint that binary.Uvarint decoded
// with byte count n, unless an earlier error stands.
func (r *Reader) fault(n int) {
	if r.err != nil {
		return
	}
	// A tenth byte with its continuation bit set overflows even when
	// the record ends right after it.
	if n < 0 || len(r.data)-r.off >= binary.MaxVarintLen64 {
		r.err = errOverflow
	} else {
		r.err = io.ErrUnexpectedEOF
	}
}

// Int reads an int field written by Writer.Int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Bool reads a bool field; any value other than 0 or 1 is an error.
func (r *Reader) Bool() bool {
	switch r.Uvarint() {
	case 0:
		return false
	case 1:
		return true
	default:
		if r.err == nil {
			r.err = errors.New("ckpt: invalid bool")
		}
		return false
	}
}

// Float64 reads a float64 field by bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uvarint()) }

// String reads a length-prefixed byte string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxBytes {
		r.err = fmt.Errorf("ckpt: string length %d exceeds limit", n)
		return ""
	}
	if uint64(len(r.data)-r.off) < n {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Count reads an element count written with Int and validates it is
// non-negative, within limit and no larger than the bytes left in the
// record. Every caller reads at least one byte per counted element, so a
// valid record always passes, and a corrupt one cannot make the caller
// allocate more elements than the record has bytes.
func (r *Reader) Count(limit int) int {
	n := r.Varint()
	if r.err != nil {
		return 0
	}
	if n < 0 || limit < 0 || n > int64(limit) {
		r.err = fmt.Errorf("ckpt: count %d exceeds limit %d", n, limit)
		return 0
	}
	if left := len(r.data) - r.off; n > int64(left) {
		r.err = fmt.Errorf("ckpt: count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

// Section consumes a section tag and fails the stream if it is not
// the expected one.
func (r *Reader) Section(tag uint64) {
	got := r.Uvarint()
	if r.err == nil && got != tag {
		r.err = fmt.Errorf("ckpt: section tag %d, want %d", got, tag)
	}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Sum32 returns the stream's CRC-32 as verified by Close (zero before
// Close). Chain readers use it as the parent-linkage fingerprint when
// validating the next delta record against the one just applied.
func (r *Reader) Sum32() uint32 { return r.sum }

// SetArena attaches a RestoreArena to the reader. LoadState
// implementations that allocate through AllocSlice/AllocStruct then draw
// from the arena instead of the heap; a nil arena (the default) falls
// back to plain allocation, so Staters never branch on pooling
// themselves.
func (r *Reader) SetArena(a *RestoreArena) { r.arena = a }

// Fail latches err as the stream error if none is set yet. Callers use
// it to report semantic validation failures (bad field values) through
// the same sticky-error channel as wire-level failures.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Close consumes the 4-byte CRC-32 trailer and checks it against the
// CRC of the bytes consumed before it, computed in one pass. It returns
// ErrChecksum on mismatch, io.ErrUnexpectedEOF when the trailer is cut
// short, or the stream's first error if one occurred earlier.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	r.sum = crc32.ChecksumIEEE(r.data[:r.off]) // trailer is not part of its own checksum
	if len(r.data)-r.off < 4 {
		r.err = io.ErrUnexpectedEOF
		return r.err
	}
	tr := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	if tr != r.sum {
		r.err = ErrChecksum
	}
	return r.err
}
