// The mappable STBT layout (format version 2): the same logical content
// as the varint-delta v1 stream, but with the five packed column arrays
// stored as page-aligned little-endian sections, so a file can be
// mmap'd and reinterpreted as trace.Columns views with no decode and no
// copy (MapColumns). ReadColumns accepts both versions, so v1 and v2
// spills coexist in one trace directory; the mapped layout trades
// ~3-4x the disk footprint of the delta stream for a warm start that
// costs a page fault instead of a parse.
//
//	magic    [4]byte  "STBT"
//	version  uint8    (2)
//	nameLen  uint16   little-endian, followed by name bytes
//	count    uint64   little-endian record count
//	sections [5]uint64 little-endian file offsets of the PCs, Targets,
//	                  Flags, PIDs, and Programs sections, in that order
//	total    uint64   little-endian total file size in bytes
//	...zero padding...
//	sections, each beginning at a mappedSectionAlign-aligned offset:
//	  PCs      count × uint64 LE
//	  Targets  count × uint64 LE
//	  Flags    count × byte
//	  PIDs     count × uint32 LE
//	  Programs count × uint16 LE
//
// The section offsets are a pure function of (nameLen, count), so a
// reader recomputes them and rejects a file whose stored table (or
// total size) disagrees — the truncation/corruption check that keeps a
// torn spill from mapping as a shorter-than-claimed trace.

package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// mappedSectionAlign is the section alignment of the v2 layout: one
// page, so every section begins page- (and thus element-) aligned in
// any mapping that starts at file offset zero.
const mappedSectionAlign = 4096

// hostLittleEndian reports whether this machine stores multi-byte
// integers little-endian — the precondition for reinterpreting the v2
// sections in place. On big-endian hosts MapColumns refuses and
// callers fall back to the decoding path.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// mappedLayout is the computed geometry of one v2 file.
type mappedLayout struct {
	sections [5]uint64 // PCs, Targets, Flags, PIDs, Programs
	total    uint64
}

// mappedElemSizes are the per-record widths of the five sections.
var mappedElemSizes = [5]uint64{8, 8, 1, 4, 2}

func alignUp(n uint64) uint64 {
	return (n + mappedSectionAlign - 1) &^ uint64(mappedSectionAlign-1)
}

// layoutMapped computes the section table for a (nameLen, count) pair.
// headerEnd = magic(4) + version(1) + nameLen(2) + name + count(8) +
// sections(40) + total(8).
func layoutMapped(nameLen int, count uint64) mappedLayout {
	var l mappedLayout
	off := alignUp(uint64(63 + nameLen))
	for i, w := range mappedElemSizes {
		l.sections[i] = off
		off = alignUp(off + count*w)
	}
	// The file ends with the last section's data, unpadded.
	l.total = l.sections[4] + count*mappedElemSizes[4]
	return l
}

// WriteColumnsMapped encodes the columnar trace to w in the mappable
// STBT layout (version 2). The output decodes to the same trace as
// WriteColumns' v1 stream, and additionally satisfies MapColumns. Every
// row of c must be final.
func WriteColumnsMapped(w io.Writer, c *Columns) error {
	if len(c.Name) > 0xffff {
		return fmt.Errorf("trace: name too long (%d bytes)", len(c.Name))
	}
	count := uint64(c.Len())
	l := layoutMapped(len(c.Name), count)
	bw := &blockWriter{w: w, buf: make([]byte, 0, mappedBlockBytes)}
	bw.buf = append(bw.buf, traceMagic[:]...)
	bw.buf = append(bw.buf, codecVersionMapped)
	bw.buf = binary.LittleEndian.AppendUint16(bw.buf, uint16(len(c.Name)))
	bw.buf = append(bw.buf, c.Name...)
	bw.buf = binary.LittleEndian.AppendUint64(bw.buf, count)
	for _, off := range l.sections {
		bw.buf = binary.LittleEndian.AppendUint64(bw.buf, off)
	}
	bw.buf = binary.LittleEndian.AppendUint64(bw.buf, l.total)
	bw.pos = uint64(len(bw.buf))

	bw.padTo(l.sections[0])
	writeLE(bw, c.PCs)
	bw.padTo(l.sections[1])
	writeLE(bw, c.Targets)
	bw.padTo(l.sections[2])
	bw.bytes(c.Flags)
	bw.padTo(l.sections[3])
	writeLE(bw, c.PIDs)
	bw.padTo(l.sections[4])
	writeLE(bw, c.Programs)
	bw.flush()
	return bw.err
}

// mappedBlockBytes is the v2 writer's block: each section is encoded a
// block at a time and written with one call, not one call per element.
const mappedBlockBytes = 1 << 16

// blockWriter fills a block buffer and writes it to w when full,
// keeping the first write error (later calls do nothing). pos counts
// the bytes produced so far, the stream offset padTo aligns against.
type blockWriter struct {
	w   io.Writer
	buf []byte
	pos uint64
	err error
}

func (b *blockWriter) flush() {
	if b.err == nil && len(b.buf) > 0 {
		_, b.err = b.w.Write(b.buf)
	}
	b.buf = b.buf[:0]
}

// room returns the free space left in the block, writing the block out
// first when less than want bytes are free.
func (b *blockWriter) room(want int) int {
	if cap(b.buf)-len(b.buf) < want {
		b.flush()
	}
	return cap(b.buf) - len(b.buf)
}

// bytes copies p into the stream.
func (b *blockWriter) bytes(p []byte) {
	b.pos += uint64(len(p))
	for len(p) > 0 {
		n := min(len(p), b.room(1))
		b.buf = append(b.buf, p[:n]...)
		p = p[n:]
	}
}

// padTo zero-fills the stream up to offset off.
func (b *blockWriter) padTo(off uint64) {
	for b.pos < off {
		n := min(off-b.pos, uint64(b.room(1)))
		b.buf = append(b.buf, make([]byte, n)...)
		b.pos += n
	}
}

// writeLE appends xs to the stream as little-endian elements, a block
// at a time.
func writeLE[T uint16 | uint32 | uint64](b *blockWriter, xs []T) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	b.pos += uint64(len(xs) * size)
	for len(xs) > 0 {
		n := min(len(xs), b.room(size)/size)
		out := b.buf[len(b.buf) : len(b.buf)+n*size]
		switch size {
		case 8:
			for i, v := range xs[:n] {
				binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
			}
		case 4:
			for i, v := range xs[:n] {
				binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
			}
		default:
			for i, v := range xs[:n] {
				binary.LittleEndian.PutUint16(out[2*i:], uint16(v))
			}
		}
		b.buf = b.buf[:len(b.buf)+n*size]
		xs = xs[n:]
	}
}

// readColumnsMapped is ReadColumns' v2 branch: a streaming decode of the
// sectioned layout for readers without (or choosing not to use) mmap.
// The magic and version bytes are already consumed. Like the v1 decoder
// it grows the column arrays as data actually arrives, so a corrupt
// header cannot force a giant allocation.
func readColumnsMapped(br *bufio.Reader) (*Columns, error) {
	var u16 [2]byte
	if _, err := io.ReadFull(br, u16[:]); err != nil {
		return nil, err
	}
	name := make([]byte, binary.LittleEndian.Uint16(u16[:]))
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var u64 [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(u64[:]), nil
	}
	count, err := readU64()
	if err != nil {
		return nil, err
	}
	if count > maxRecords {
		return nil, fmt.Errorf("trace: record count %d exceeds limit", count)
	}
	var stored mappedLayout
	for i := range stored.sections {
		if stored.sections[i], err = readU64(); err != nil {
			return nil, err
		}
	}
	if stored.total, err = readU64(); err != nil {
		return nil, err
	}
	if want := layoutMapped(len(name), count); stored != want {
		return nil, fmt.Errorf("trace %q: mapped section table %v does not match layout %v", name, stored, want)
	}

	pos := uint64(63 + len(name))
	skipTo := func(off uint64) error {
		if off < pos {
			return fmt.Errorf("trace %q: mapped section offset %d behind stream position %d", name, off, pos)
		}
		if _, err := io.CopyN(io.Discard, br, int64(off-pos)); err != nil {
			return err
		}
		pos = off
		return nil
	}
	// Read a section in bounded chunks, converting little-endian in
	// place; append growth is driven by bytes actually read.
	const chunkElems = 1 << 14
	buf := make([]byte, chunkElems*8)
	readSection := func(si int, grow func(b []byte)) error {
		if err := skipTo(stored.sections[si]); err != nil {
			return err
		}
		elem := mappedElemSizes[si]
		for left := count; left > 0; {
			n := left
			if n > chunkElems {
				n = chunkElems
			}
			b := buf[:n*elem]
			if _, err := io.ReadFull(br, b); err != nil {
				return fmt.Errorf("trace %q: mapped section %d: %w", name, si, err)
			}
			grow(b)
			left -= n
		}
		pos += count * elem
		return nil
	}
	c := &Columns{Name: string(name)}
	if err := readSection(0, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			c.PCs = append(c.PCs, binary.LittleEndian.Uint64(b[i:]))
		}
	}); err != nil {
		return nil, err
	}
	if err := readSection(1, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			c.Targets = append(c.Targets, binary.LittleEndian.Uint64(b[i:]))
		}
	}); err != nil {
		return nil, err
	}
	if err := readSection(2, func(b []byte) {
		c.Flags = append(c.Flags, b...)
	}); err != nil {
		return nil, err
	}
	if err := readSection(3, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			c.PIDs = append(c.PIDs, binary.LittleEndian.Uint32(b[i:]))
		}
	}); err != nil {
		return nil, err
	}
	if err := readSection(4, func(b []byte) {
		for i := 0; i < len(b); i += 2 {
			c.Programs = append(c.Programs, binary.LittleEndian.Uint16(b[i:]))
		}
	}); err != nil {
		return nil, err
	}
	return c, nil
}

// MapColumns reinterprets data — a complete v2 STBT file, typically an
// mmap'd region starting at file offset zero — as zero-copy Columns
// views over the packed sections. No bytes are decoded or copied except
// the (tiny) name. The returned columns alias data: they are valid
// exactly as long as the mapping is, and the caller owns that lifetime
// (tracestore ties it to cache residency with a finalizer).
//
// MapColumns fails — and the caller should fall back to ReadColumns —
// when the file is not version 2, the host is not little-endian, data
// is not 8-byte aligned, or the header's section table, record count,
// and total size do not agree with both the layout rules and len(data).
// Structural validation of the record contents themselves is the
// caller's job (Columns.Validate), exactly as with the decoding path.
func MapColumns(data []byte) (*Columns, error) {
	if !hostLittleEndian {
		return nil, fmt.Errorf("trace: cannot map columns on a big-endian host")
	}
	if len(data) < 63 {
		return nil, io.ErrUnexpectedEOF
	}
	if [4]byte(data[:4]) != traceMagic {
		return nil, ErrBadMagic
	}
	if data[4] != codecVersionMapped {
		return nil, fmt.Errorf("%w: %d (not mappable)", ErrBadVersion, data[4])
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		return nil, fmt.Errorf("trace: mapped buffer is not 8-byte aligned")
	}
	nameLen := int(binary.LittleEndian.Uint16(data[5:7]))
	if 63+nameLen > len(data) {
		return nil, io.ErrUnexpectedEOF
	}
	name := string(data[7 : 7+nameLen]) // copied: must outlive the mapping
	off := 7 + nameLen
	count := binary.LittleEndian.Uint64(data[off:])
	if count > maxRecords {
		return nil, fmt.Errorf("trace: record count %d exceeds limit", count)
	}
	var stored mappedLayout
	for i := range stored.sections {
		stored.sections[i] = binary.LittleEndian.Uint64(data[off+8+8*i:])
	}
	stored.total = binary.LittleEndian.Uint64(data[off+48:])
	want := layoutMapped(nameLen, count)
	if stored != want {
		return nil, fmt.Errorf("trace %q: mapped section table does not match layout", name)
	}
	if want.total != uint64(len(data)) {
		return nil, fmt.Errorf("trace %q: mapped file is %d bytes, layout wants %d (truncated?)", name, len(data), want.total)
	}
	c := &Columns{Name: name}
	if count == 0 {
		c.PCs, c.Targets = []uint64{}, []uint64{}
		c.Flags, c.PIDs, c.Programs = []byte{}, []uint32{}, []uint16{}
		return c, nil
	}
	n := int(count)
	c.PCs = unsafe.Slice((*uint64)(unsafe.Pointer(&data[want.sections[0]])), n)
	c.Targets = unsafe.Slice((*uint64)(unsafe.Pointer(&data[want.sections[1]])), n)
	c.Flags = data[want.sections[2] : want.sections[2]+count : want.sections[2]+count]
	c.PIDs = unsafe.Slice((*uint32)(unsafe.Pointer(&data[want.sections[3]])), n)
	c.Programs = unsafe.Slice((*uint16)(unsafe.Pointer(&data[want.sections[4]])), n)
	return c, nil
}
