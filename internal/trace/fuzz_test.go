package trace

import (
	"bytes"
	"testing"
)

// FuzzRead hammers the STBT decoders with arbitrary bytes: error or
// valid trace, never a panic. Whenever an 8-byte-aligned copy of the
// bytes maps (MapColumns, the v2 zero-copy path), the mapped columns
// must equal the streaming decode record for record. And whenever
// arbitrary bytes decode, Read must agree with ReadColumns and
// decode → WriteColumns → decode must be the identity — except for v2
// flag bytes the v1 stream cannot carry (see v1Flags).
func FuzzRead(f *testing.F) {
	tr := &Trace{Name: "seed"}
	for i := 0; i < 100; i++ {
		tr.Records = append(tr.Records, Record{
			PC: uint64(i) * 16, Target: uint64(i)*16 + 64,
			Kind: Kind(i % 6), Taken: true, PID: uint32(i % 4),
		})
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:8])
	f.Add([]byte("STBT"))
	f.Add([]byte{})
	// Columns-specific seed: kernel records and PID churn exercise the
	// flag masking and samePID reconstruction in the columnar decoder.
	churn := &Trace{Name: "churn"}
	for i := 0; i < 64; i++ {
		churn.Records = append(churn.Records, Record{
			PC: uint64(i) * 4, Target: uint64(i)*4 + 4,
			Kind: KindCond, Taken: i%3 == 0, Kernel: i%2 == 0,
			PID: uint32(i % 7), Program: uint16(i % 5),
		})
	}
	buf.Reset()
	if err := Write(&buf, churn); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), buf.Bytes()...))
	// v2 (mappable) seeds: the same traces through WriteColumnsMapped,
	// whole and with the last section cut short.
	for _, src := range []*Trace{tr, churn} {
		var v2 bytes.Buffer
		if err := WriteColumnsMapped(&v2, FromTrace(src)); err != nil {
			f.Fatal(err)
		}
		f.Add(v2.Bytes())
		f.Add(v2.Bytes()[:v2.Len()-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := ReadColumns(bytes.NewReader(data))
		if mapped, merr := MapColumns(alignedCopy(data)); merr == nil {
			if err != nil {
				t.Fatalf("MapColumns accepted what ReadColumns rejects: %v", err)
			}
			if mapped.Name != cols.Name || mapped.Len() != cols.Len() {
				t.Fatalf("mapped shape %q/%d != decoded %q/%d", mapped.Name, mapped.Len(), cols.Name, cols.Len())
			}
			for i := 0; i < cols.Len(); i++ {
				if mapped.Record(i) != cols.Record(i) || mapped.Flags[i] != cols.Flags[i] {
					t.Fatalf("record %d: mapped %+v (flags %#x) != decoded %+v (flags %#x)",
						i, mapped.Record(i), mapped.Flags[i], cols.Record(i), cols.Flags[i])
				}
			}
		}
		if err != nil {
			return
		}
		if cols == nil {
			t.Fatal("nil columns with nil error")
		}
		// The AoS wrapper sees exactly the columnar decode.
		rt, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Read failed where ReadColumns succeeded: %v", err)
		}
		if len(rt.Records) != cols.Len() {
			t.Fatalf("Read len %d != ReadColumns len %d", len(rt.Records), cols.Len())
		}
		if !v1Flags(cols) {
			return
		}
		// Whatever decoded must re-encode and decode back identically.
		var out bytes.Buffer
		if err := WriteColumns(&out, cols); err != nil {
			t.Fatalf("re-encode of decoded columns failed: %v", err)
		}
		again, err := ReadColumns(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Len() != cols.Len() || again.Name != cols.Name {
			t.Fatalf("re-decode shape %q/%d != %q/%d", again.Name, again.Len(), cols.Name, cols.Len())
		}
		for i := 0; i < cols.Len(); i++ {
			if again.Record(i) != cols.Record(i) {
				t.Fatalf("record %d unstable under re-encode", i)
			}
		}
	})
}

// v1Flags reports whether every flag byte fits the v1 record stream.
// The v1 decoder masks codec-private bits and rejects invalid kinds,
// so its output always fits; v2 sections carry flag bytes verbatim, and
// a stray samePID bit or an invalid kind cannot survive a v1 re-encode.
func v1Flags(c *Columns) bool {
	for _, f := range c.Flags {
		if f&^flagRecordMask != 0 || Kind(f&FlagKindMask) >= numKinds {
			return false
		}
	}
	return true
}

// FuzzCSVRead does the same for the CSV codec.
func FuzzCSVRead(f *testing.F) {
	f.Add([]byte("pc,target,kind,taken,pid,program,kernel\n40,80,cond,1,1,0,0\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data), "fuzz")
		if err == nil && got == nil {
			t.Fatal("nil trace with nil error")
		}
	})
}
