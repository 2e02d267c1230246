package tracestore

import (
	"os"
	"runtime"
	"testing"
)

// BenchmarkWarmStart measures a cold store's first GetColumns against a
// populated disk tier — the cost every fleet worker pays per trace on
// startup. The decode sub-benchmark parses the v1 delta stream; the
// mmap sub-benchmark maps the v2 layout in place, so its allocs/op is a
// small fixed bookkeeping constant with no per-record decode
// allocations (pinned by the bench gate).
func BenchmarkWarmStart(b *testing.B) {
	const workload, records = "505.mcf", 100_000

	run := func(b *testing.B, mapped bool) {
		if mapped && !mmapSupported {
			b.Skip("mmap unsupported on this platform")
		}
		dir := b.TempDir()
		seed := New(0, nil)
		seed.SetMapped(mapped)
		if err := seed.SetDir(dir); err != nil {
			b.Fatal(err)
		}
		if _, _, err := seed.GetColumns(workload, records); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := New(0, nil)
			s.SetMapped(mapped)
			if err := s.SetDir(dir); err != nil {
				b.Fatal(err)
			}
			cols, _, err := s.GetColumns(workload, records)
			if err != nil {
				b.Fatal(err)
			}
			if cols.Len() != records {
				b.Fatalf("warm start returned %d records", cols.Len())
			}
			if s.Stats().Generations != 0 {
				b.Fatal("warm start ran the generator")
			}
			if mapped && i%512 == 511 {
				// Mappings are released by finalizer; nudge the GC so a
				// long benchmark run cannot pile up dead regions against
				// the kernel's mapping-count limit.
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				b.StartTimer()
			}
		}
	}
	b.Run("decode", func(b *testing.B) { run(b, false) })
	b.Run("mmap", func(b *testing.B) { run(b, true) })
}

// BenchmarkColdSpill measures a cold store's first lookup of a trace
// with a mapped disk tier, through to the spill on disk: generating the
// trace, admitting it, and writing and fsyncing its v2 spill on the
// background writer (GetColumns returns once the spill has landed). It
// is the per-trace cost of a tiers-cold run, minus the replay that
// overlaps the generation there.
func BenchmarkColdSpill(b *testing.B) {
	const workload, records = "505.mcf", 100_000
	if !mmapSupported {
		b.Skip("mmap unsupported on this platform")
	}
	dir := b.TempDir()
	path := New(0, nil)
	if err := path.SetDir(dir); err != nil {
		b.Fatal(err)
	}
	spillFile := path.diskPath(Key{Name: workload, Records: records})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(0, nil)
		s.SetMapped(true)
		if err := s.SetDir(dir); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.GetColumns(workload, records); err != nil {
			b.Fatal(err)
		}
		s.Wait()
		if st := s.Stats(); st.Generations != 1 || st.DiskWrites != 1 {
			b.Fatalf("cold lookup stats = %+v, want one generation and one spill", st)
		}
		b.StopTimer()
		if err := os.Remove(spillFile); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
