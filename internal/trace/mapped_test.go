package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// alignedCopy returns an 8-byte-aligned copy of b, as mmap would hand
// back (page-aligned) but without needing a real mapping in tests.
func alignedCopy(b []byte) []byte {
	buf := make([]byte, len(b)+8)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 0 {
		off++
	}
	out := buf[off : off+len(b) : off+len(b)]
	copy(out, b)
	return out
}

// encodeMapped is the test helper: records → v2 bytes.
func encodeMapped(t *testing.T, name string, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnsMapped(&buf, FromRecords(name, recs)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMappedRoundTripProperty pins the v2 layout's two decode paths:
// ReadColumns (stream) and MapColumns (zero-copy) both reproduce the
// original records exactly, for randomized record sets including the
// empty trace.
func TestMappedRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3_000)
		if trial == 0 {
			n = 0 // force the empty-trace case
		}
		recs := randomRecords(rng, n)
		data := encodeMapped(t, "mapped-prop", recs)

		decoded, err := ReadColumns(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: ReadColumns: %v", trial, err)
		}
		mapped, err := MapColumns(alignedCopy(data))
		if err != nil {
			t.Fatalf("trial %d: MapColumns: %v", trial, err)
		}
		for _, c := range []*Columns{decoded, mapped} {
			if c.Name != "mapped-prop" || c.Len() != len(recs) {
				t.Fatalf("trial %d: shape %q/%d", trial, c.Name, c.Len())
			}
			if err := c.Validate(); err != nil && n > 0 {
				t.Fatalf("trial %d: %v", trial, err)
			}
			back := c.ToRecords()
			for i := range recs {
				if back[i] != recs[i] {
					t.Fatalf("trial %d record %d: %+v != %+v", trial, i, back[i], recs[i])
				}
			}
		}
	}
}

// TestWriteColumnsMappedGolden pins the v2 writer's bytes for a fixed
// preset trace: every .stbt spill ever written must keep decoding and
// mapping, so the length and SHA-256 change only with a deliberate
// format change (a new codec version), never with a faster encoder.
func TestWriteColumnsMappedGolden(t *testing.T) {
	const (
		wantLen = 2_313_536
		wantSHA = "b009932812807dc12152b130c52ff8e5704d756bb7d7c913240ee489746bd3f4"
	)
	cols, err := GenerateColumns(testProfile("505.mcf", 100_000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteColumnsMapped(&buf, cols); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); buf.Len() != wantLen || got != wantSHA {
		t.Errorf("505.mcf@100000 encodes to %d bytes, sha256 %s; want %d bytes, sha256 %s",
			buf.Len(), got, wantLen, wantSHA)
	}
}

// TestMapColumnsIsZeroCopy proves the mapped view aliases the backing
// buffer: flipping a byte inside the PCs section is visible through the
// columns without re-mapping.
func TestMapColumnsIsZeroCopy(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(3)), 100)
	data := alignedCopy(encodeMapped(t, "alias", recs))
	cols, err := MapColumns(data)
	if err != nil {
		t.Fatal(err)
	}
	l := layoutMapped(len("alias"), uint64(len(recs)))
	before := cols.PCs[0]
	data[l.sections[0]] ^= 0xff
	if cols.PCs[0] == before {
		t.Fatal("mapped columns did not alias the buffer (a copy was made)")
	}
}

// TestMappedSectionAlignment checks every section starts page-aligned —
// the property that makes the arrays directly mappable.
func TestMappedSectionAlignment(t *testing.T) {
	for _, n := range []int{0, 1, 4095, 4096, 4097, 10_000} {
		recs := randomRecords(rand.New(rand.NewSource(int64(n))), n)
		data := encodeMapped(t, "align", recs)
		l := layoutMapped(len("align"), uint64(n))
		if got := uint64(len(data)); got != l.total {
			t.Fatalf("n=%d: file is %d bytes, layout says %d", n, got, l.total)
		}
		for i, off := range l.sections {
			if off%mappedSectionAlign != 0 {
				t.Fatalf("n=%d: section %d at unaligned offset %d", n, i, off)
			}
		}
	}
}

// TestMapColumnsRejectsCorruption walks the failure arms: short buffer,
// bad magic, wrong version, truncated tail, mid-section truncation, and
// a doctored section table.
func TestMapColumnsRejectsCorruption(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(9)), 2_000)
	good := encodeMapped(t, "corrupt", recs)
	l := layoutMapped(len("corrupt"), uint64(len(recs)))

	cases := []struct {
		name string
		data []byte
	}{
		{"short", good[:16]},
		{"bad-magic", append([]byte("NOPE"), good[4:]...)},
		{"v1-stream", func() []byte {
			var buf bytes.Buffer
			if err := WriteColumns(&buf, FromRecords("corrupt", recs)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}()},
		{"truncated-tail", good[:len(good)-100]},
		{"truncated-mid-section", good[:l.sections[2]+50]},
		{"doctored-table", func() []byte {
			b := append([]byte(nil), good...)
			off := 7 + len("corrupt") + 8 // first section-table slot
			binary.LittleEndian.PutUint64(b[off:], l.sections[0]+8)
			return b
		}()},
		{"doctored-count", func() []byte {
			b := append([]byte(nil), good...)
			binary.LittleEndian.PutUint64(b[7+len("corrupt"):], uint64(len(recs)-1))
			return b
		}()},
	}
	for _, tc := range cases {
		if _, err := MapColumns(alignedCopy(tc.data)); err == nil {
			t.Errorf("%s: MapColumns accepted corrupt input", tc.name)
		}
		// The stream decoder must reject the same corruption (except the
		// v1 stream, which it legitimately decodes).
		if tc.name == "v1-stream" {
			continue
		}
		if _, err := ReadColumns(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: ReadColumns accepted corrupt input", tc.name)
		}
	}
}

// TestMapColumnsRejectsMisaligned pins the 8-byte base alignment guard.
func TestMapColumnsRejectsMisaligned(t *testing.T) {
	data := alignedCopy(encodeMapped(t, "align", randomRecords(rand.New(rand.NewSource(1)), 10)))
	buf := make([]byte, len(data)+8)
	off := 0
	for uintptr(unsafe.Pointer(&buf[off]))%8 != 1 {
		off++
	}
	odd := buf[off : off+len(data)]
	copy(odd, data)
	if _, err := MapColumns(odd); err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Fatalf("misaligned buffer: got %v, want alignment error", err)
	}
}
