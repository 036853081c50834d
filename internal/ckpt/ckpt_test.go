package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"
)

// record closes w and returns its sealed bytes.
func record(t testing.TB, w *Writer) []byte {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return w.Bytes()
}

// TestRoundTrip drives every primitive through a write/read cycle and
// verifies the checksum trailer closes the stream cleanly.
func TestRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	w.Section(7)
	w.Uvarint(0)
	w.Uvarint(math.MaxUint64)
	w.Varint(-1)
	w.Varint(math.MaxInt64)
	w.Varint(math.MinInt64)
	w.Int(-42)
	w.Bool(true)
	w.Bool(false)
	w.Float64(3.25)
	w.Float64(math.Inf(-1))
	w.Float64(math.Copysign(0, -1))
	w.String("")
	w.String("dynlocal")
	rec := record(t, w)
	if got, want := w.Sum32(), crc32.ChecksumIEEE(rec[:len(rec)-4]); got != want {
		t.Errorf("Sum32 = %#x, want the CRC of the fields %#x", got, want)
	}

	r := NewReader(rec)
	r.Section(7)
	if got := r.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := r.Varint(); got != math.MaxInt64 {
		t.Errorf("Varint = %d, want MaxInt64", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("Varint = %d, want MinInt64", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d, want -42", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.Float64(); got != 3.25 {
		t.Errorf("Float64 = %v, want 3.25", got)
	}
	if got := r.Float64(); !math.IsInf(got, -1) {
		t.Errorf("Float64 = %v, want -Inf", got)
	}
	if got := r.Float64(); got != 0 || !math.Signbit(got) {
		t.Errorf("Float64 = %v, want -0", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.String(); got != "dynlocal" {
		t.Errorf("String = %q, want dynlocal", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
	if r.Sum32() != w.Sum32() {
		t.Errorf("reader Sum32 = %#x, writer %#x", r.Sum32(), w.Sum32())
	}
}

// TestDeterministicEncoding pins that identical field sequences
// produce identical bytes — the property checkpoint comparison tests
// build on — whatever storage the writer starts from.
func TestDeterministicEncoding(t *testing.T) {
	emit := func(buf []byte) []byte {
		w := NewWriter(buf)
		w.Section(1)
		w.Int(12345)
		w.String("state")
		w.Float64(0.5)
		return bytes.Clone(record(t, w))
	}
	a := emit(nil)
	if !bytes.Equal(a, emit(nil)) {
		t.Fatal("identical field sequences produced different bytes")
	}
	if !bytes.Equal(a, emit([]byte("leftover bytes of an older record"))) {
		t.Fatal("a reused buffer changed the record")
	}
}

// TestChecksumDetectsCorruption flips each byte of a valid stream in
// turn and demands the reader reports an error (checksum or earlier
// wire-level failure) for every corruption.
func TestChecksumDetectsCorruption(t *testing.T) {
	w := NewWriter(nil)
	w.Section(3)
	w.Uvarint(300)
	w.String("abc")
	good := record(t, w)

	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x40
		r := NewReader(bad)
		r.Section(3)
		r.Uvarint()
		_ = r.String()
		if err := r.Close(); err == nil {
			t.Errorf("corruption at byte %d not detected", i)
		}
	}
}

// TestTruncationDetected cuts the stream at every prefix length and
// demands an error — a torn checkpoint must never restore cleanly.
func TestTruncationDetected(t *testing.T) {
	w := NewWriter(nil)
	w.Uvarint(1 << 40)
	w.String("payload")
	good := record(t, w)

	for cut := 0; cut < len(good); cut++ {
		r := NewReader(good[:cut])
		r.Uvarint()
		_ = r.String()
		if err := r.Close(); err == nil {
			t.Errorf("truncation at %d/%d not detected", cut, len(good))
		}
	}
}

// TestSectionMismatch checks that a wrong section tag fails fast.
func TestSectionMismatch(t *testing.T) {
	w := NewWriter(nil)
	w.Section(1)
	r := NewReader(record(t, w))
	r.Section(2)
	if r.Err() == nil {
		t.Fatal("section mismatch not detected")
	}
}

// TestCountLimit checks hostile counts are rejected before allocation:
// a count over the limit, a negative one, and one larger than the bytes
// left in the record.
func TestCountLimit(t *testing.T) {
	w := NewWriter(nil)
	w.Int(1 << 30)
	w.Int(-5)
	w.Int(77)
	for range 77 {
		w.Bool(false)
	}
	rec := record(t, w)
	r := NewReader(rec)
	if r.Count(1024); r.Err() == nil {
		t.Fatal("oversized count not rejected")
	}
	r = NewReader(rec)
	_ = r.Int()
	if r.Count(1024); r.Err() == nil {
		t.Fatal("negative count not rejected")
	}
	r = NewReader(rec)
	_, _ = r.Int(), r.Int()
	if got := r.Count(1024); got != 77 || r.Err() != nil {
		t.Fatalf("valid count: got %d err %v", got, r.Err())
	}
	w = NewWriter(nil)
	w.Int(100)
	r = NewReader(record(t, w))
	const want = "ckpt: count 100 exceeds the 4 bytes left"
	if r.Count(1024); r.Err() == nil || r.Err().Error() != want {
		t.Fatalf("count beyond the record: err %v, want %q", r.Err(), want)
	}
}

// TestInvalidBool checks non-0/1 bool encodings are rejected.
func TestInvalidBool(t *testing.T) {
	w := NewWriter(nil)
	w.Uvarint(2)
	r := NewReader(record(t, w))
	if r.Bool(); r.Err() == nil {
		t.Fatal("invalid bool not rejected")
	}
}

// TestVarintOverflow checks that over-long varints are rejected rather
// than silently wrapped.
func TestVarintOverflow(t *testing.T) {
	// Eleven continuation bytes: more than any uint64 needs.
	raw := bytes.Repeat([]byte{0xff}, 11)
	r := NewReader(raw)
	if r.Uvarint(); r.Err() == nil {
		t.Fatal("overlong varint not rejected")
	}
}

// TestFail latches semantic errors on the stream, and a writer's
// latched error keeps Close from sealing the record.
func TestFail(t *testing.T) {
	r := NewReader(nil)
	r.Fail(errors.New("config mismatch"))
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "config mismatch") {
		t.Fatalf("Fail not latched: %v", r.Err())
	}
	// First error wins.
	r.Fail(errors.New("second"))
	if !strings.Contains(r.Err().Error(), "config mismatch") {
		t.Fatal("Fail overwrote earlier error")
	}

	w := NewWriter(nil)
	w.Uvarint(5)
	w.Fail(errors.New("not checkpointable"))
	w.Fail(errors.New("second"))
	w.Uvarint(6)
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "not checkpointable") {
		t.Fatalf("writer Close = %v, want the first latched error", err)
	}
	if w.Sum32() != 0 || len(w.Bytes()) != 2 {
		t.Fatalf("failed record sealed: Sum32 %#x, %d bytes", w.Sum32(), len(w.Bytes()))
	}
}

// TestPlainReader drives ChainReader over a source that is neither an
// io.ByteReader nor sized, so record lengths are read a byte at a time
// and bodies grow as they arrive.
func TestPlainReader(t *testing.T) {
	var recs [][]byte
	var chain bytes.Buffer
	if err := WriteChainMagic(&chain); err != nil {
		t.Fatal(err)
	}
	for i, s := range []string{"x", strings.Repeat("y", 300)} {
		w := NewWriter(nil)
		w.Uvarint(999 + uint64(i))
		w.String(s)
		recs = append(recs, bytes.Clone(record(t, w)))
		if err := AppendChainRecord(&chain, w); err != nil {
			t.Fatal(err)
		}
	}
	cr := NewChainReader(onlyReader{bytes.NewReader(chain.Bytes())})
	for i, want := range recs {
		rec, err := cr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("record %d: read %x, want %x", i, rec, want)
		}
		r := NewReader(rec)
		if got := r.Uvarint(); got != 999+uint64(i) {
			t.Fatalf("Uvarint = %d, want %d", got, 999+i)
		}
		_ = r.String()
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	torn := chain.Bytes()[:chain.Len()-1]
	cr = NewChainReader(onlyReader{bytes.NewReader(torn)})
	cr.Next()
	if _, err := cr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn last record: %v, want io.ErrUnexpectedEOF", err)
	}
}

// onlyReader hides every interface except io.Reader.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// refReader is the byte-at-a-time decoder the slice Reader replaced: it
// pulls every byte through a bytes.Reader and folds it into a running
// CRC-32. FuzzReader holds the Reader to its results.
type refReader struct {
	br  *bytes.Reader
	crc uint32
	sum uint32
	err error
}

func (r *refReader) readByte() (byte, error) {
	if r.err != nil {
		return 0, r.err
	}
	b, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return 0, err
	}
	r.crc = crc32.Update(r.crc, crc32.IEEETable, []byte{b})
	return b, nil
}

func (r *refReader) Uvarint() uint64 {
	var v uint64
	var shift uint
	for {
		b, err := r.readByte()
		if err != nil {
			return 0
		}
		if shift == 63 && b > 1 {
			r.err = errors.New("ckpt: varint overflows uint64")
			return 0
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
		shift += 7
	}
}

func (r *refReader) Varint() int64 {
	u := r.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *refReader) Bool() bool {
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

func (r *refReader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxBytes {
		r.err = fmt.Errorf("ckpt: string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	for i := range buf {
		b, err := r.readByte()
		if err != nil {
			return ""
		}
		buf[i] = b
	}
	return string(buf)
}

func (r *refReader) Count(limit int) int {
	n := r.Varint()
	if r.err != nil {
		return 0
	}
	if n < 0 || limit < 0 || n > int64(limit) {
		r.err = fmt.Errorf("ckpt: count %d exceeds limit %d", n, limit)
		return 0
	}
	if left := r.br.Len(); n > int64(left) {
		r.err = fmt.Errorf("ckpt: count %d exceeds the %d bytes left", n, left)
		return 0
	}
	return int(n)
}

func (r *refReader) Section(tag uint64) {
	got := r.Uvarint()
	if r.err == nil && got != tag {
		r.err = fmt.Errorf("ckpt: section tag %d, want %d", got, tag)
	}
}

func (r *refReader) Close() error {
	if r.err != nil {
		return r.err
	}
	r.sum = r.crc
	var tr [4]byte
	for i := range tr {
		b, err := r.readByte()
		if err != nil {
			return r.err
		}
		tr[i] = b
	}
	if binary.LittleEndian.Uint32(tr[:]) != r.sum {
		r.err = ErrChecksum
	}
	return r.err
}

// errText renders an error for comparison; nil is the empty string.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReader runs one script of reads over arbitrary bytes through the
// Reader and through refReader, and requires both to return the same
// value and the same error (or nil) after every step. Each script byte
// picks an operation (low three bits) and its argument (the rest): a
// Count limit or a Section tag.
func FuzzReader(f *testing.F) {
	w := NewWriter(nil)
	w.Section(9)
	w.Uvarint(300)
	w.Varint(-7)
	w.Bool(true)
	w.String("dynlocal")
	w.Int(12)
	rec := record(f, w)
	f.Add(rec, []byte{5 | 9<<3, 0, 1, 2, 3, 4 | 12<<3, 6, 6})
	f.Add(rec[:len(rec)-3], []byte{0, 0, 0, 3, 6})
	f.Add(bytes.Repeat([]byte{0xff}, 11), []byte{0, 1})
	f.Add([]byte{2, 0x80, 0x80}, []byte{2, 3, 6})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		got := NewReader(data)
		want := &refReader{br: bytes.NewReader(data)}
		for i, op := range script {
			arg := int(op >> 3)
			var g, w any
			switch op & 7 {
			case 0:
				g, w = got.Uvarint(), want.Uvarint()
			case 1:
				g, w = got.Varint(), want.Varint()
			case 2:
				g, w = got.Bool(), want.Bool()
			case 3:
				g, w = got.String(), want.String()
			case 4:
				g, w = got.Count(arg), want.Count(arg)
			case 5:
				got.Section(uint64(arg))
				want.Section(uint64(arg))
			default:
				g, w = errText(got.Close()), errText(want.Close())
				if got.Sum32() != want.sum {
					t.Fatalf("step %d: Sum32 %#x, reference %#x", i, got.Sum32(), want.sum)
				}
			}
			if g != w {
				t.Fatalf("step %d (op %d): got %v, reference %v", i, op&7, g, w)
			}
			if ge, we := errText(got.Err()), errText(want.err); ge != we {
				t.Fatalf("step %d (op %d): err %q, reference %q", i, op&7, ge, we)
			}
		}
	})
}
