// Package snap implements the deterministic binary codec predictor
// snapshots are written in (sim.Snapshotter's EncodeState/DecodeState).
// The format is deliberately primitive: fixed-width little-endian
// integers and length-prefixed sequences appended in struct-field
// order, with no framing, compression, or reflection. Determinism is
// the contract — encoding the same model state twice must yield the
// same bytes in every process, because snapstore keys content-address
// checkpoints and distributed workers must agree on them — so nothing
// here depends on map iteration order or platform word size (callers
// sort map keys before writing them).
//
// A Reader never panics on truncated or corrupt input: it latches an
// error and returns zero values, and the caller checks Err() once at
// the end. Decoders built on it therefore reject damaged snapshots
// cleanly, which is what lets the disk tier fall back to replay when a
// spilled checkpoint is unreadable.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// maxSliceLen bounds a decoded length prefix so corrupt input cannot
// trigger a giant allocation. Predictor tables are at most a few MiB;
// 1<<28 elements is far beyond any real snapshot.
const maxSliceLen = 1 << 28

// Writer appends values to a growing byte buffer. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// I8 appends one int8.
func (w *Writer) I8(v int8) { w.U8(uint8(v)) }

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// I16 appends a little-endian int16.
func (w *Writer) I16(v int16) { w.U16(uint16(v)) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends an int as a little-endian int64, so the encoding is
// identical on 32- and 64-bit platforms.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// F64 appends a float64 as its IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len appends a sequence length prefix.
func (w *Writer) Len(n int) { w.U32(uint32(n)) }

// Bytes8 appends a length-prefixed byte slice.
func (w *Writer) Bytes8(v []byte) {
	w.Len(len(v))
	w.buf = append(w.buf, v...)
}

// U8s appends a length-prefixed []uint8.
func (w *Writer) U8s(v []uint8) { w.Bytes8(v) }

// I8s appends a length-prefixed []int8.
func (w *Writer) I8s(v []int8) {
	w.Len(len(v))
	for _, x := range v {
		w.I8(x)
	}
}

// I16s appends a length-prefixed []int16.
func (w *Writer) I16s(v []int16) {
	w.Len(len(v))
	for _, x := range v {
		w.I16(x)
	}
}

// U32s appends a length-prefixed []uint32.
func (w *Writer) U32s(v []uint32) {
	w.Len(len(v))
	for _, x := range v {
		w.U32(x)
	}
}

// I32s appends a length-prefixed []int32.
func (w *Writer) I32s(v []int32) {
	w.Len(len(v))
	for _, x := range v {
		w.I32(x)
	}
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(v []uint64) {
	w.Len(len(v))
	for _, x := range v {
		w.U64(x)
	}
}

// Reader consumes a snapshot encoding. On any malformed read it
// latches an error and every subsequent read returns the zero value;
// check Err once after the final field.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first error the reader encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left to read, so a decoder can
// reject a length prefix whose elements could not fit before
// allocating for them.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns Err, or an error if trailing bytes remain — a snapshot
// must be consumed exactly.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d trailing bytes after decode", len(r.buf)-r.off)
	}
	return nil
}

// Fail lets a decoder latch a domain-level error (a structural
// mismatch the codec itself cannot see, like a config marker that
// disagrees with the decoding model).
func (r *Reader) Fail(format string, args ...any) { r.fail(format, args...) }

// fail latches the reader's first error.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format, args...)
	}
}

// take returns the next n bytes, or nil after latching a truncation
// error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.buf)-r.off < n {
		r.fail("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a bool, rejecting any byte but 0 or 1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("invalid bool byte %d", v)
		return false
	}
}

// I8 reads one int8.
func (r *Reader) I8() int8 { return int8(r.U8()) }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// I16 reads a little-endian int16.
func (r *Reader) I16() int16 { return int16(r.U16()) }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a sequence length prefix, bounding it against corrupt
// input.
func (r *Reader) Len() int {
	n := r.U32()
	if n > maxSliceLen {
		r.fail("length prefix %d exceeds bound %d", n, maxSliceLen)
		return 0
	}
	return int(n)
}

// LenExact reads a length prefix and rejects any value but want; table
// geometries are configuration-derived, so a decoded snapshot must
// match the live model's shape exactly.
func (r *Reader) LenExact(want int) int {
	n := r.Len()
	if r.err == nil && n != want {
		r.fail("length %d, want %d", n, want)
		return 0
	}
	return n
}

// Bytes8 reads a length-prefixed byte slice (always a fresh copy).
func (r *Reader) Bytes8() []byte {
	n := r.Len()
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// U8sInto reads a length-prefixed []uint8 into dst, requiring the
// encoded length to match len(dst).
func (r *Reader) U8sInto(dst []uint8) {
	r.LenExact(len(dst))
	b := r.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// I8sInto reads a length-prefixed []int8 into dst.
func (r *Reader) I8sInto(dst []int8) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.I8()
	}
}

// I16sInto reads a length-prefixed []int16 into dst.
func (r *Reader) I16sInto(dst []int16) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.I16()
	}
}

// U32sInto reads a length-prefixed []uint32 into dst.
func (r *Reader) U32sInto(dst []uint32) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.U32()
	}
}

// I32sInto reads a length-prefixed []int32 into dst.
func (r *Reader) I32sInto(dst []int32) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.I32()
	}
}

// U64sInto reads a length-prefixed []uint64 into dst.
func (r *Reader) U64sInto(dst []uint64) {
	r.LenExact(len(dst))
	for i := range dst {
		dst[i] = r.U64()
	}
}
