package snap

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// record is one value of every primitive the codec speaks, in the order
// encode and decode walk them.
type record struct {
	u8    uint8
	b     bool
	i8    int8
	u16   uint16
	i16   int16
	u32   uint32
	i32   int32
	u64   uint64
	n     int
	f     float64
	raw   []byte
	u8s   []uint8
	i8s   []int8
	i16s  []int16
	u32s  []uint32
	i32s  []int32
	u64s  []uint64
	count int
}

func sample() record {
	return record{
		u8: 0xfe, b: true, i8: -7, u16: 0xbeef, i16: -12345,
		u32: 0xdeadbeef, i32: math.MinInt32, u64: math.MaxUint64, n: -1 << 40,
		f:   -math.MaxFloat64,
		raw: []byte("snapshot"), u8s: []uint8{0, 1, 255},
		i8s: []int8{-128, 0, 127}, i16s: []int16{math.MinInt16, 0, math.MaxInt16},
		u32s: []uint32{0, 1 << 31}, i32s: []int32{-1, 1}, u64s: []uint64{1, 1 << 63},
		count: 3,
	}
}

func encode(r record) []byte {
	w := NewWriter(16)
	w.U8(r.u8)
	w.Bool(r.b)
	w.I8(r.i8)
	w.U16(r.u16)
	w.I16(r.i16)
	w.U32(r.u32)
	w.I32(r.i32)
	w.U64(r.u64)
	w.Int(r.n)
	w.F64(r.f)
	w.Bytes8(r.raw)
	w.U8s(r.u8s)
	w.I8s(r.i8s)
	w.I16s(r.i16s)
	w.U32s(r.u32s)
	w.I32s(r.i32s)
	w.U64s(r.u64s)
	w.Len(r.count)
	return w.Bytes()
}

// decode reads a record back; shape supplies the lengths the *Into
// readers require, as a model's live tables would.
func decode(data []byte, shape record) (record, error) {
	rd := NewReader(data)
	r := record{
		u8: rd.U8(), b: rd.Bool(), i8: rd.I8(), u16: rd.U16(), i16: rd.I16(),
		u32: rd.U32(), i32: rd.I32(), u64: rd.U64(), n: rd.Int(), f: rd.F64(),
		raw: rd.Bytes8(),
	}
	r.u8s = make([]uint8, len(shape.u8s))
	rd.U8sInto(r.u8s)
	r.i8s = make([]int8, len(shape.i8s))
	rd.I8sInto(r.i8s)
	r.i16s = make([]int16, len(shape.i16s))
	rd.I16sInto(r.i16s)
	r.u32s = make([]uint32, len(shape.u32s))
	rd.U32sInto(r.u32s)
	r.i32s = make([]int32, len(shape.i32s))
	rd.I32sInto(r.i32s)
	r.u64s = make([]uint64, len(shape.u64s))
	rd.U64sInto(r.u64s)
	r.count = rd.LenExact(shape.count)
	return r, rd.Done()
}

func TestRoundTripEveryPrimitive(t *testing.T) {
	want := sample()
	data := encode(want)
	got, err := decode(data, want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if again := encode(got); !bytes.Equal(again, data) {
		t.Error("encode(decode(x)) != x: the encoding is not a fixed point")
	}
}

func TestZeroValuesRoundTrip(t *testing.T) {
	var want record
	got, err := decode(encode(want), want)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-shape tables decode into their (empty) destinations.
	want.u8s, want.i8s, want.i16s = []uint8{}, []int8{}, []int16{}
	want.u32s, want.i32s, want.u64s = []uint32{}, []int32{}, []uint64{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("zero round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestFloatBitPatternsPreserved(t *testing.T) {
	for _, bits := range []uint64{
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)), 0x7ff8000000000001, // a NaN payload
		math.Float64bits(math.SmallestNonzeroFloat64),
	} {
		w := &Writer{}
		w.F64(math.Float64frombits(bits))
		r := NewReader(w.Bytes())
		if got := math.Float64bits(r.F64()); got != bits || r.Done() != nil {
			t.Errorf("float bits %#x decoded as %#x (err %v)", bits, got, r.Done())
		}
	}
}

// TestLittleEndianLayout pins the wire layout: fixed-width little-endian
// integers, u32 length prefixes, ints widened to 64 bits.
func TestLittleEndianLayout(t *testing.T) {
	w := &Writer{}
	w.U16(0x0102)
	w.U32(0x03040506)
	w.Int(-2)
	w.Bytes8([]byte{0xaa})
	want := []byte{
		0x02, 0x01,
		0x06, 0x05, 0x04, 0x03,
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0x01, 0x00, 0x00, 0x00, 0xaa,
	}
	if !bytes.Equal(w.Bytes(), want) {
		t.Errorf("layout = % x, want % x", w.Bytes(), want)
	}
}

// TestEveryTruncationLatches: each strict prefix of a valid encoding
// fails decode with an error instead of panicking or half-succeeding.
func TestEveryTruncationLatches(t *testing.T) {
	shape := sample()
	data := encode(shape)
	for n := 0; n < len(data); n++ {
		if _, err := decode(data[:n:n], shape); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
	}
}

func TestErrorLatchesAndReadsReturnZero(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U32(); v != 0 {
		t.Errorf("truncated U32 = %d, want 0", v)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", first)
	}
	// Later reads — even ones the remaining bytes could satisfy —
	// return zero values and keep the first error.
	if r.U8() != 0 || r.Bool() || r.U16() != 0 || r.Bytes8() != nil {
		t.Error("reads after a latched error must return zero values")
	}
	r.Fail("domain error")
	if r.Err() != first || r.Done() != first {
		t.Errorf("first error not kept: %v", r.Err())
	}
}

func TestFailLatchesDomainError(t *testing.T) {
	r := NewReader([]byte{0})
	r.Fail("marker %d", 7)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "marker 7") {
		t.Fatalf("err = %v, want the domain error", r.Err())
	}
	if r.U8() != 0 {
		t.Error("read after Fail returned data")
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, maxSliceLen+1)
	r := NewReader(huge)
	if n := r.Len(); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds bound") {
		t.Errorf("Len over the bound = %d, err %v; want 0 and a bound error", n, r.Err())
	}

	// A length within the bound but beyond the data is a truncation,
	// reported without allocating the claimed size.
	lying := binary.LittleEndian.AppendUint32(nil, maxSliceLen)
	r = NewReader(append(lying, 1, 2, 3))
	if b := r.Bytes8(); b != nil || r.Err() == nil {
		t.Errorf("Bytes8 with a lying prefix = %v, err %v; want nil and an error", b, r.Err())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewReader(lying).Bytes8()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("lying length prefix allocated %d bytes", grew)
	}

	// Every *Into reader rejects a length that disagrees with its
	// destination, whatever the data behind it.
	for name, read := range map[string]func(*Reader){
		"U8sInto":  func(r *Reader) { r.U8sInto(make([]uint8, 2)) },
		"I8sInto":  func(r *Reader) { r.I8sInto(make([]int8, 2)) },
		"I16sInto": func(r *Reader) { r.I16sInto(make([]int16, 2)) },
		"U32sInto": func(r *Reader) { r.U32sInto(make([]uint32, 2)) },
		"I32sInto": func(r *Reader) { r.I32sInto(make([]int32, 2)) },
		"U64sInto": func(r *Reader) { r.U64sInto(make([]uint64, 2)) },
	} {
		for _, n := range []uint32{0, 1, 3, math.MaxUint32} {
			data := append(binary.LittleEndian.AppendUint32(nil, n), make([]byte, 64)...)
			r := NewReader(data)
			read(r)
			if r.Err() == nil {
				t.Errorf("%s accepted length %d for a 2-element table", name, n)
			}
		}
	}
}

func TestInvalidBoolRejected(t *testing.T) {
	r := NewReader([]byte{2})
	if r.Bool() || r.Err() == nil {
		t.Errorf("bool byte 2 accepted (err %v)", r.Err())
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	r := NewReader([]byte{1, 0})
	r.U8()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("Done = %v, want a trailing-bytes error", err)
	}
}

func TestBytes8ReturnsCopy(t *testing.T) {
	w := &Writer{}
	w.Bytes8([]byte{1, 2, 3})
	data := w.Bytes()
	b := NewReader(data).Bytes8()
	b[0] = 9
	if data[4] != 1 {
		t.Error("Bytes8 aliases the input buffer")
	}
}

// FuzzDecode: arbitrary bytes decode to an error or to a record whose
// re-encoding reproduces the input exactly — never a panic, never a
// half-accepted input.
func FuzzDecode(f *testing.F) {
	shape := sample()
	valid := encode(shape)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add(append(append([]byte{}, valid...), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(data, shape)
		if err != nil {
			return
		}
		if again := encode(got); !bytes.Equal(again, data) {
			t.Errorf("accepted input does not re-encode to itself:\n in  % x\n out % x", data, again)
		}
	})
}
