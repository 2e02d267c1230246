package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomRecords builds structurally valid records with adversarial
// variety: kind mix, PID/program churn, kernel bursts, extreme address
// deltas.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		k := Kind(rng.Intn(int(numKinds)))
		r := Record{
			PC:      rng.Uint64() & VAMask,
			Target:  rng.Uint64() & VAMask,
			Kind:    k,
			Taken:   true,
			PID:     uint32(rng.Intn(5)),
			Program: uint16(rng.Intn(3)),
			Kernel:  rng.Intn(4) == 0,
		}
		if k == KindCond {
			r.Taken = rng.Intn(2) == 0
		}
		recs[i] = r
	}
	return recs
}

// TestColumnsRoundTripProperty is the lossless-conversion property
// test: for randomized record sets, Records → Columns → Records is the
// identity, and the columnar view answers every per-row accessor
// identically to the source records.
func TestColumnsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		recs := randomRecords(rng, rng.Intn(2_000))
		cols := FromRecords("prop", recs)
		if err := cols.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cols.Len() != len(recs) {
			t.Fatalf("trial %d: len %d != %d", trial, cols.Len(), len(recs))
		}
		back := cols.ToRecords()
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("trial %d record %d: round trip %+v != %+v", trial, i, back[i], recs[i])
			}
			if cols.Record(i) != recs[i] {
				t.Fatalf("trial %d record %d: Record() diverges", trial, i)
			}
			if cols.Kind(i) != recs[i].Kind || cols.Taken(i) != recs[i].Taken || cols.Kernel(i) != recs[i].Kernel {
				t.Fatalf("trial %d record %d: flag accessors diverge", trial, i)
			}
		}
	}
}

// TestSTBTColumnsRoundTrip pins the codec contract of the columnar
// paths: WriteColumns emits bytes identical to Write, and
// STBT → ReadColumns → ToRecords reproduces the original records
// (the decode-into-columns path is lossless end to end).
func TestSTBTColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		recs := randomRecords(rng, 1+rng.Intn(3_000))
		tr := &Trace{Name: "stbt-prop", Records: recs}
		cols := FromTrace(tr)

		var aos, soa bytes.Buffer
		if err := Write(&aos, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteColumns(&soa, cols); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aos.Bytes(), soa.Bytes()) {
			t.Fatalf("trial %d: WriteColumns bytes diverge from Write", trial)
		}

		decoded, err := ReadColumns(bytes.NewReader(aos.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if decoded.Name != tr.Name || decoded.Len() != len(recs) {
			t.Fatalf("trial %d: decoded shape %q/%d", trial, decoded.Name, decoded.Len())
		}
		back := decoded.ToRecords()
		for i := range recs {
			if back[i] != recs[i] {
				t.Fatalf("trial %d record %d: STBT round trip %+v != %+v", trial, i, back[i], recs[i])
			}
		}
	}
}

// TestColumnsValidateCatchesCorruption exercises each Validate arm.
func TestColumnsValidateCatchesCorruption(t *testing.T) {
	good := func() *Columns {
		return FromRecords("v", []Record{
			{PC: 0x1000, Target: 0x2000, Kind: KindCond, Taken: false},
			{PC: 0x2000, Target: 0x3000, Kind: KindDirectJump, Taken: true},
		})
	}
	cases := []struct {
		name   string
		break_ func(*Columns)
	}{
		{"ragged", func(c *Columns) { c.PIDs = c.PIDs[:1] }},
		{"stray-flag-bits", func(c *Columns) { c.Flags[0] |= 1 << 6 }},
		{"wide-pc", func(c *Columns) { c.PCs[0] = 1 << 50 }},
		{"wide-target", func(c *Columns) { c.Targets[1] = 1 << 60 }},
		{"bad-kind", func(c *Columns) { c.Flags[1] = 7 | FlagTaken }},
		{"untaken-unconditional", func(c *Columns) { c.Flags[1] &^= FlagTaken }},
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid columns rejected: %v", err)
	}
	for _, tc := range cases {
		c := good()
		tc.break_(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

// TestColumnsOffsetEntities pins the SMT thread view: every row reads
// as the source row with PID and Program offset (Program wrapping like
// the uint16 it is), the hot columns are shared rather than copied, the
// source is left untouched, and a view cut from a Slice pins the slice's
// owner.
func TestColumnsOffsetEntities(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randomRecords(rng, 200)
	recs[7].Program = 0xffff
	cols := FromRecords("offset", recs)

	v := cols.OffsetEntities(1<<16, 1<<12)
	if v.Len() != cols.Len() || v.Name != cols.Name {
		t.Fatalf("view %q/%d, source %q/%d", v.Name, v.Len(), cols.Name, cols.Len())
	}
	for i, r := range recs {
		want := r
		want.PID += 1 << 16
		want.Program += 1 << 12
		if got := v.Record(i); got != want {
			t.Fatalf("view record %d = %+v, want %+v", i, got, want)
		}
		if cols.Record(i) != r {
			t.Fatalf("source record %d changed", i)
		}
	}
	if &v.PCs[0] != &cols.PCs[0] || &v.Targets[0] != &cols.Targets[0] || &v.Flags[0] != &cols.Flags[0] {
		t.Error("view copied a hot column")
	}
	if v.parent != cols {
		t.Error("view does not pin its source")
	}
	if sv := cols.Slice(10, 20).OffsetEntities(1, 1); sv.parent != cols || sv.Record(0).PC != recs[10].PC {
		t.Error("view of a slice does not pin the slice's owner")
	}
}

// TestColumnsSizeBytesExact pins the exact-footprint arithmetic the
// tracestore byte budget relies on.
func TestColumnsSizeBytesExact(t *testing.T) {
	cols := FromRecords("abcd", make([]Record, 100))
	want := int64(100*(8+8+1+4+2) + 4)
	if got := cols.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

// TestColumnsSliceViews pins the zero-copy window contract: a slice
// answers accessors like the equivalent record subrange, re-slicing
// composes, and out-of-range bounds panic rather than alias.
func TestColumnsSliceViews(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := randomRecords(rng, 500)
	cols := FromRecords("slice", recs)

	s := cols.Slice(100, 400)
	if s.Len() != 300 {
		t.Fatalf("slice len %d", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.Record(i) != recs[100+i] {
			t.Fatalf("slice record %d diverges", i)
		}
	}
	// Re-slicing a view windows the view, not the root.
	ss := s.Slice(50, 60)
	for i := 0; i < ss.Len(); i++ {
		if ss.Record(i) != recs[150+i] {
			t.Fatalf("re-slice record %d diverges", i)
		}
	}
	// Empty and full windows are legal.
	if cols.Slice(0, 0).Len() != 0 || cols.Slice(0, 500).Len() != 500 {
		t.Error("degenerate windows mis-sized")
	}
	for _, bad := range [][2]int{{-1, 10}, {10, 501}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			cols.Slice(bad[0], bad[1])
		}()
	}
}
