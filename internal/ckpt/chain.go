package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Chain container: a checkpoint chain file is the raw magic "DLCKC1"
// followed by length-prefixed records, each record a complete ckpt
// stream (own CRC-32 trailer). The first record is a base — the
// difference from a freshly constructed run; every following record is
// a delta against the record before it, linked by the parent's CRC-32
// fingerprint (Writer.Sum32 of the parent record, written into the
// delta's header by the producer and validated by the consumer). The
// container itself stays dumb on purpose: framing and tear detection
// live here, record semantics live with the engine/checker record
// format.
//
// Tear semantics: a crash while appending leaves a torn tail. Next
// returns a clean io.EOF only on a record boundary; an EOF inside a
// length prefix or a record body surfaces as io.ErrUnexpectedEOF, and a
// record whose trailer does not match its bytes fails VerifyRecord — in
// every case the torn record never restores, while the intact prefix
// before it does.

// ChainMagic identifies a checkpoint chain container.
const ChainMagic = "DLCKC1"

// maxChainRecord bounds a declared record length (1 GiB); real
// checkpoints are far smaller, so anything larger is corruption and must
// not drive allocation.
const maxChainRecord = 1 << 30

// ErrNotChain is returned by ChainReader when the stream does not start
// with the chain magic.
var ErrNotChain = errors.New("ckpt: not a checkpoint chain (bad magic)")

// WriteChainMagic starts a new chain container on w.
func WriteChainMagic(w io.Writer) error {
	_, err := io.WriteString(w, ChainMagic)
	return err
}

// AppendChainRecord appends the closed record in rec (a sealed ckpt
// stream, trailer included) to a chain container: its length prefix,
// then its bytes. The prefix is encoded in rec's own storage, since a
// local array handed to w.Write would escape to the heap on every
// record. The caller is responsible for any durability (fsync) between
// records.
func AppendChainRecord(w io.Writer, rec *Writer) error {
	n := binary.PutUvarint(rec.prefix[:], uint64(len(rec.buf)))
	if _, err := w.Write(rec.prefix[:n]); err != nil {
		return err
	}
	_, err := w.Write(rec.buf)
	return err
}

// VerifyRecord checks a record's framing-level integrity: the trailing
// CRC-32 must match the payload bytes. Chain consumers call it on the
// in-memory record before parsing, so a corrupted record is rejected
// whole instead of half-applying its sections.
func VerifyRecord(record []byte) error {
	if len(record) < 4 {
		return io.ErrUnexpectedEOF
	}
	body, tr := record[:len(record)-4], record[len(record)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tr) {
		return ErrChecksum
	}
	return nil
}

// ChainReader iterates the records of a chain container.
type ChainReader struct {
	r       io.Reader
	br      io.ByteReader
	one     [1]byte
	buf     []byte // record buffer, reused by every Next
	started bool
	err     error
}

// NewChainReader returns a reader over a chain container. The magic is
// consumed and validated on the first Next call.
func NewChainReader(r io.Reader) *ChainReader {
	cr := &ChainReader{r: r}
	cr.br, _ = r.(io.ByteReader)
	return cr
}

func (cr *ChainReader) readByte() (byte, error) {
	if cr.br != nil {
		return cr.br.ReadByte()
	}
	if _, err := io.ReadFull(cr.r, cr.one[:]); err != nil {
		return 0, err
	}
	return cr.one[0], nil
}

// Next returns the next record's bytes (trailer included), CRC-verified
// via VerifyRecord. It returns io.EOF exactly on a clean record
// boundary; an EOF anywhere else means a torn tail and surfaces as
// io.ErrUnexpectedEOF. Errors are sticky. The returned slice is the
// reader's own buffer: it is valid until the next call to Next, which
// overwrites it, so a caller that keeps a record longer must copy it.
//
//dynlint:loan
func (cr *ChainReader) Next() ([]byte, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	if !cr.started {
		magic := make([]byte, len(ChainMagic))
		if _, err := io.ReadFull(cr.r, magic); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = ErrNotChain
			}
			cr.err = err
			return nil, err
		}
		if string(magic) != ChainMagic {
			cr.err = ErrNotChain
			return nil, cr.err
		}
		cr.started = true
	}
	var n uint64
	var shift uint
	for i := 0; ; i++ {
		b, err := cr.readByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF // torn mid-length
			}
			cr.err = err
			return nil, err
		}
		if shift > 63 || (shift == 63 && b > 1) {
			cr.err = errors.New("ckpt: chain record length overflows uint64")
			return nil, cr.err
		}
		n |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
		shift += 7
	}
	if n > maxChainRecord {
		cr.err = fmt.Errorf("ckpt: chain record length %d exceeds limit", n)
		return nil, cr.err
	}
	rec, err := cr.readRecord(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // torn mid-record
		}
		cr.err = err
		return nil, err
	}
	if err := VerifyRecord(rec); err != nil {
		cr.err = err
		return nil, err
	}
	return rec, nil
}

// readRecord reads a record body of declared length n into the reader's
// buffer, which keeps its high-water capacity across records. The buffer
// is grown to n up front only when it already holds n bytes or the
// source reports that it holds n more; otherwise it grows as bytes
// arrive, so a corrupt length cannot drive a large allocation.
func (cr *ChainReader) readRecord(n uint64) ([]byte, error) {
	if l, ok := cr.r.(interface{ Len() int }); ok && uint64(l.Len()) >= n || uint64(cap(cr.buf)) >= n {
		cr.buf = slices.Grow(cr.buf[:0], int(n))[:n]
		_, err := io.ReadFull(cr.r, cr.buf)
		return cr.buf, err
	}
	buf := bytes.NewBuffer(cr.buf[:0])
	_, err := io.CopyN(buf, cr.r, int64(n))
	cr.buf = buf.Bytes()
	return cr.buf, err
}
