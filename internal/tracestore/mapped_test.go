package tracestore

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"stbpu/internal/cpu"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// newMapped builds a mapped-mode store over dir, skipping the test on
// platforms without mmap (where mapped mode degrades to decoding and
// these assertions do not hold).
func newMapped(t *testing.T, maxBytes int64, dir string) *Store {
	t.Helper()
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	s := New(maxBytes, nil)
	s.SetMapped(true)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	return s
}

// seedMappedSpill generates (name, records) through a mapped-mode store
// so dir holds a v2 spill, and returns the generated columns.
func seedMappedSpill(t *testing.T, dir, name string, records int) *trace.Columns {
	t.Helper()
	seed := newMapped(t, 0, dir)
	cols, _, err := seed.GetColumns(name, records)
	if err != nil {
		t.Fatal(err)
	}
	if st := seed.Stats(); st.DiskWrites != 1 {
		t.Fatalf("seed stats = %+v, want one v2 spill", st)
	}
	return cols
}

// spillFile returns the single .stbt file under dir.
func spillFile(t *testing.T, dir string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v), want exactly one", files, err)
	}
	return files[0]
}

// TestMappedTierRoundTrip is the zero-copy tier's core contract: a
// second mapped store maps the v2 spill — no generation, no decode —
// and the view is record-identical to the generated trace.
func TestMappedTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := seedMappedSpill(t, dir, "505.mcf", 3_000)

	s := newMapped(t, 0, dir)
	got, _, err := s.GetColumns("505.mcf", 3_000)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Generations != 0 || st.DiskHits != 1 || st.MmapHits != 1 {
		t.Fatalf("stats = %+v, want a pure mmap hit", st)
	}
	if st.BytesMapped <= 0 {
		t.Fatalf("bytes_mapped = %d, want > 0 while the entry is resident", st.BytesMapped)
	}
	if got.Len() != want.Len() || got.Name != want.Name {
		t.Fatalf("shape mismatch: %d/%q vs %d/%q", got.Len(), got.Name, want.Len(), want.Name)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Record(i) != want.Record(i) {
			t.Fatalf("record %d diverges through the mapped view", i)
		}
	}
	runtime.KeepAlive(got)
}

// TestMappedResidencyCharge pins the accounting rule: a mapped entry's
// column bytes belong to the kernel page cache and must not be charged
// against the in-memory budget — the entry pays only the fixed
// bookkeeping overhead.
func TestMappedResidencyCharge(t *testing.T) {
	dir := t.TempDir()
	seedMappedSpill(t, dir, "505.mcf", 2_000)

	s := newMapped(t, 0, dir)
	cols, _, err := s.GetColumns("505.mcf", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Bytes != entryOverheadBytes {
		t.Fatalf("mapped entry charges %d bytes, want exactly the %d overhead", st.Bytes, entryOverheadBytes)
	}
	runtime.KeepAlive(cols)
}

// TestMappedEvictionUnmapOrdering pins the unmap lifecycle: eviction
// alone must NOT unmap (a replay may still hold the columns); the
// region is released only after the last reader drops the view, and
// bytes_mapped returns to zero.
func TestMappedEvictionUnmapOrdering(t *testing.T) {
	var unmaps atomic.Int32
	unmapHook = func(int) { unmaps.Add(1) }
	defer func() { unmapHook = nil }()

	dir := t.TempDir()
	want := seedMappedSpill(t, dir, "505.mcf", 2_000)
	wantFirst, wantLast := want.Record(0), want.Record(want.Len()-1)

	s := newMapped(t, 1, dir) // 1-byte budget: everything evicts at admit
	cols, _, err := s.GetColumns("505.mcf", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.MmapHits != 1 {
		t.Fatalf("stats = %+v, want the mapped entry admitted and evicted", st)
	}
	runtime.GC() // must not collect: we still hold cols
	if n := unmaps.Load(); n != 0 {
		t.Fatalf("region unmapped %d times while a reader still holds the columns", n)
	}
	// The evicted-but-held view stays fully readable.
	if cols.Record(0) != wantFirst || cols.Record(cols.Len()-1) != wantLast {
		t.Fatal("mapped columns unreadable after eviction")
	}
	if st := s.Stats(); st.BytesMapped <= 0 {
		t.Fatalf("bytes_mapped = %d while a reader holds the view", st.BytesMapped)
	}
	runtime.KeepAlive(cols)

	// Drop the last reference; the finalizer releases the region.
	cols = nil
	for i := 0; i < 100 && unmaps.Load() == 0; i++ {
		runtime.GC()
	}
	if n := unmaps.Load(); n != 1 {
		t.Fatalf("unmaps = %d after the last reader dropped the view, want 1", n)
	}
	if st := s.Stats(); st.BytesMapped != 0 {
		t.Fatalf("bytes_mapped = %d after unmap, want 0", st.BytesMapped)
	}
}

// TestMappedSMTViewPinsMapping: an SMT timeline's thread-1 view shares
// the hot columns of its trace, so over a mapped spill it must keep the
// mapping alive after the store evicts the entry and the caller drops
// the columns. The replay then reads the mapped pages and matches an
// in-heap run; the munmap runs only once the timeline is gone.
func TestMappedSMTViewPinsMapping(t *testing.T) {
	var unmaps atomic.Int32
	unmapHook = func(int) { unmaps.Add(1) }
	defer func() { unmapHook = nil }()

	ctx := context.Background()
	dir := t.TempDir()
	seedMappedSpill(t, dir, "505.mcf", 2_000)
	a, _, err := PresetGenColumns("541.leela", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	heap, _, err := PresetGenColumns("505.mcf", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.ConfigFor(a.Name)
	replay := func(tl *cpu.Timeline) cpu.SMTResult {
		t.Helper()
		m := sim.New(sim.KindSTBPU, sim.Options{Seed: 3})
		res, err := cpu.New(cfg, m).RunSMTTimelineCtx(ctx, tl, a, heap)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref, err := cpu.NewSMTTimeline(ctx, cfg, a, heap)
	if err != nil {
		t.Fatal(err)
	}
	want := replay(ref)

	s := newMapped(t, 1, dir) // 1-byte budget: everything evicts at admit
	b, _, err := s.GetColumns("505.mcf", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.MmapHits != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want the mapped entry admitted and evicted", st)
	}
	tl, err := cpu.NewSMTTimeline(ctx, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	b = nil
	for i := 0; i < 5; i++ {
		runtime.GC()
	}
	if n := unmaps.Load(); n != 0 {
		t.Fatalf("region unmapped %d times while a timeline's view still reads it", n)
	}
	if got := replay(tl); got != want {
		t.Errorf("replay through the mapped view = %+v, want %+v", got, want)
	}
	runtime.KeepAlive(tl)

	tl = nil
	for i := 0; i < 100 && unmaps.Load() == 0; i++ {
		runtime.GC()
	}
	if n := unmaps.Load(); n != 1 {
		t.Fatalf("unmaps = %d after the timeline was dropped, want 1", n)
	}
}

// TestMappedCorruptSpillFallsBack extends the torn-file cases to the
// mapped tier: garbage, a mid-section truncation, and bit rot that
// survives the layout checks must all regenerate + rewrite exactly like
// the decode path, and the rewritten v2 file serves clean mmap hits.
func TestMappedCorruptSpillFallsBack(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string, good *trace.Columns)
	}{
		{"garbage", func(t *testing.T, path string, _ *trace.Columns) {
			if err := os.WriteFile(path, []byte("STBT garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"mid-section-truncation", func(t *testing.T, path string, _ *trace.Columns) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Cut inside the flags section: past the table, mid-data.
			if err := os.Truncate(path, st.Size()*2/3); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-rot", func(t *testing.T, path string, good *trace.Columns) {
			rotten := &trace.Columns{
				Name:     good.Name,
				PCs:      append([]uint64(nil), good.PCs...),
				Targets:  append([]uint64(nil), good.Targets...),
				Flags:    append([]byte(nil), good.Flags...),
				PIDs:     append([]uint32(nil), good.PIDs...),
				Programs: append([]uint16(nil), good.Programs...),
			}
			poisoned := false
			for i := range rotten.Flags {
				if trace.Kind(rotten.Flags[i]&trace.FlagKindMask) != trace.KindCond {
					rotten.Flags[i] &^= trace.FlagTaken
					poisoned = true
					break
				}
			}
			if !poisoned {
				t.Fatal("trace has no unconditional branch to poison")
			}
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteColumnsMapped(f, rotten); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			good := seedMappedSpill(t, dir, "505.mcf", 1_000)
			tc.corrupt(t, spillFile(t, dir), good)

			s := newMapped(t, 0, dir)
			got, _, err := s.GetColumns("505.mcf", 1_000)
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.DiskErrors == 0 || st.Generations != 1 || st.DiskWrites != 1 || st.MmapHits != 0 {
				t.Fatalf("stats after corrupt mapped spill = %+v, want disk error + regeneration + rewrite", st)
			}
			for i := 0; i < got.Len(); i++ {
				if got.Record(i) != good.Record(i) {
					t.Fatalf("record %d wrong after regeneration", i)
				}
			}

			reread := newMapped(t, 0, dir)
			if _, _, err := reread.GetColumns("505.mcf", 1_000); err != nil {
				t.Fatal(err)
			}
			if st := reread.Stats(); st.MmapHits != 1 || st.Generations != 0 {
				t.Fatalf("stats after rewrite = %+v, want a clean mmap hit", st)
			}
		})
	}
}

// TestMappedModeInterop pins cross-version compatibility in a shared
// directory: a mapped store decodes a v1 spill (no error, no
// regeneration), and an unmapped store decodes a v2 spill.
func TestMappedModeInterop(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	t.Run("v1-spill-in-mapped-mode", func(t *testing.T) {
		dir := t.TempDir()
		plain := New(0, nil)
		if err := plain.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.GetColumns("519.lbm", 1_500); err != nil {
			t.Fatal(err)
		}

		s := newMapped(t, 0, dir)
		if _, _, err := s.GetColumns("519.lbm", 1_500); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.Generations != 0 || st.DiskHits != 1 || st.MmapHits != 0 || st.DiskErrors != 0 {
			t.Fatalf("stats = %+v, want a decode hit of the v1 spill", st)
		}
	})
	t.Run("v2-spill-in-plain-mode", func(t *testing.T) {
		dir := t.TempDir()
		seedMappedSpill(t, dir, "519.lbm", 1_500)

		plain := New(0, nil)
		if err := plain.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plain.GetColumns("519.lbm", 1_500); err != nil {
			t.Fatal(err)
		}
		st := plain.Stats()
		if st.Generations != 0 || st.DiskHits != 1 || st.MmapHits != 0 || st.DiskErrors != 0 {
			t.Fatalf("stats = %+v, want a decode hit of the v2 spill", st)
		}
	})
}

// TestMappedColumnsSharedReadRace hammers one mapped region from many
// readers while the store churns (evicts and re-maps) — run under the
// race detector in CI, it proves shared read-only mapped views need no
// caller-side locking.
func TestMappedColumnsSharedReadRace(t *testing.T) {
	dir := t.TempDir()
	seedMappedSpill(t, dir, "505.mcf", 2_000)

	s := newMapped(t, 1, dir) // evict immediately: every lookup re-maps
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				cols, _, err := s.GetColumns("505.mcf", 2_000)
				if err != nil {
					t.Error(err)
					return
				}
				var sum uint64
				for i := 0; i < cols.Len(); i++ {
					sum += cols.PCs[i] ^ cols.Targets[i] ^ uint64(cols.Flags[i])
				}
				if sum == 0 {
					t.Error("implausible zero checksum")
				}
				runtime.KeepAlive(cols)
			}
		}()
	}
	wg.Wait()
}
