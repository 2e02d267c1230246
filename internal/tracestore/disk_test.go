package tracestore

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
)

// TestDiskTierRoundTrip is the disk tier's core contract: a second
// store sharing the directory decodes the spill instead of
// regenerating, and the decoded trace (and profile) are bit-identical
// to generation. A registered spec workload takes the same path: its
// name resolves through spec.Lookup, for generation and for the
// profile of the decoded spill alike.
func TestDiskTierRoundTrip(t *testing.T) {
	names := []string{"505.mcf"}
	for _, s := range spec.Builtin() {
		if err := spec.Register(s); err != nil {
			t.Fatal(err)
		}
		names = append(names, s.WorkloadName())
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			first := New(0, nil)
			if err := first.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			want, wantProf, err := first.GetColumns(name, 3_000)
			if err != nil {
				t.Fatal(err)
			}
			st := first.Stats()
			if st.Generations != 1 || st.DiskMisses != 1 || st.DiskWrites != 1 || st.DiskHits != 0 {
				t.Fatalf("first-store stats = %+v, want 1 generation, 1 disk miss, 1 spill", st)
			}
			if wantProf.Name != name {
				t.Fatalf("generated profile names %q, want %q", wantProf.Name, name)
			}

			second := New(0, nil)
			if err := second.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			got, gotProf, err := second.GetColumns(name, 3_000)
			if err != nil {
				t.Fatal(err)
			}
			st = second.Stats()
			if st.Generations != 0 || st.DiskHits != 1 {
				t.Fatalf("second-store stats = %+v, want 0 generations, 1 disk hit", st)
			}
			if gotProf != wantProf {
				t.Errorf("disk-tier profile %+v diverges from generated profile %+v", gotProf, wantProf)
			}
			encode := func(tr *trace.Columns) []byte {
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(encode(got), encode(want)) {
				t.Error("disk-tier trace differs from generated trace")
			}
		})
	}
}

// TestDiskTierColumnsPath pins the decode-into-columns path: a disk
// hit through GetColumns yields columns identical to converting the
// generated trace, with no generator run.
func TestDiskTierColumnsPath(t *testing.T) {
	dir := t.TempDir()

	first := New(0, nil)
	if err := first.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, _, err := first.GetColumns("519.lbm", 2_000)
	if err != nil {
		t.Fatal(err)
	}

	second := New(0, nil)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, _, err := second.GetColumns("519.lbm", 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats().Generations != 0 {
		t.Fatal("disk hit still ran the generator")
	}
	if got.Len() != want.Len() || got.Name != want.Name {
		t.Fatalf("shape mismatch: %d/%q vs %d/%q", got.Len(), got.Name, want.Len(), want.Name)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Record(i) != want.Record(i) {
			t.Fatalf("record %d diverges after disk round-trip", i)
		}
	}
}

// TestDiskCorruptSpillFallsBack: a truncated or garbage spill must not
// fail the lookup — it regenerates, counts a DiskError, and rewrites the
// file so the next reader hits cleanly.
func TestDiskCorruptSpillFallsBack(t *testing.T) {
	dir := t.TempDir()

	seedStore := New(0, nil)
	if err := seedStore.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := seedStore.GetColumns("505.mcf", 1_000); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v), want exactly one", files, err)
	}
	if err := os.WriteFile(files[0], []byte("STBT garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(0, nil)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	cols, _, err := s.GetColumns("505.mcf", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != 1_000 {
		t.Fatalf("records = %d, want 1000", cols.Len())
	}
	st := s.Stats()
	if st.DiskErrors == 0 || st.Generations != 1 || st.DiskWrites != 1 {
		t.Fatalf("stats after corrupt spill = %+v, want disk error + regeneration + rewrite", st)
	}

	// The rewritten spill must now serve hits again.
	reread := New(0, nil)
	if err := reread.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reread.GetColumns("505.mcf", 1_000); err != nil {
		t.Fatal(err)
	}
	if st := reread.Stats(); st.DiskHits != 1 || st.Generations != 0 {
		t.Fatalf("stats after rewrite = %+v, want a clean disk hit", st)
	}
}

// TestDiskTierRejectsCustomGen: spill files are keyed by (name,
// records) alone, so a store with a custom generator can neither trust
// nor safely produce them — SetDir must refuse outright rather than
// let one generator's bytes be served as another's.
func TestDiskTierRejectsCustomGen(t *testing.T) {
	var calls atomic.Uint64
	s := New(0, synthGen(&calls))
	if err := s.SetDir(t.TempDir()); err == nil {
		t.Fatal("SetDir accepted a custom-generator store")
	}
	// The refused store still works, tier-less.
	if _, _, err := s.GetColumns("w", 100); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskHits+st.DiskMisses+st.DiskWrites != 0 {
		t.Errorf("refused tier still counted disk activity: %+v", st)
	}
}

// TestDiskBitRotDetected: corruption that survives varint framing (a
// flipped flag bit deep in the stream) must still be caught — the
// loader validates structure, counts a DiskError, and regenerates.
func TestDiskBitRotDetected(t *testing.T) {
	dir := t.TempDir()
	seed := New(0, nil)
	if err := seed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, _, err := seed.GetColumns("505.mcf", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill files = %v (err %v)", files, err)
	}
	// Rewrite the spill with one unconditional branch marked not-taken:
	// decodes cleanly, matches the key's name and length, but violates
	// the trace invariants.
	rotten := &trace.Columns{
		Name:     want.Name,
		PCs:      append([]uint64(nil), want.PCs...),
		Targets:  append([]uint64(nil), want.Targets...),
		Flags:    append([]byte(nil), want.Flags...),
		PIDs:     append([]uint32(nil), want.PIDs...),
		Programs: append([]uint16(nil), want.Programs...),
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
	f, err := os.Create(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteColumns(f, rotten); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s := New(0, nil)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.GetColumns("505.mcf", 1_000)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.DiskErrors == 0 || st.Generations != 1 {
		t.Fatalf("stats after bit rot = %+v, want disk error + regeneration", st)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Record(i) != want.Record(i) {
			t.Fatalf("record %d still poisoned after regeneration", i)
		}
	}
}

// TestDiskTierEvictionReloadsFromDisk: after an eviction, the next lookup
// reloads the spill instead of regenerating — the disk tier is what
// makes tiny in-memory budgets cheap.
func TestDiskTierEvictionReloadsFromDisk(t *testing.T) {
	dir := t.TempDir()
	s := New(1, nil) // every trace is immediately evicted
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetColumns("505.mcf", 1_000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetColumns("505.mcf", 1_000); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Generations != 1 {
		t.Errorf("generations = %d, want 1 (second fill should decode the spill)", st.Generations)
	}
	if st.DiskHits != 1 || st.DiskWrites != 1 {
		t.Errorf("disk stats = %+v, want 1 hit after 1 spill", st)
	}
}

// TestDiskTierServesShortNames: Figs. 4-6 name SPEC workloads by their
// gem5 short names, which generate under the full name. A spill made
// through a short name must serve a fresh store sharing the directory
// with no generation and no disk error, under either name.
func TestDiskTierServesShortNames(t *testing.T) {
	dir := t.TempDir()
	first := New(0, nil)
	if err := first.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, _, err := first.GetColumns("mcf", 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.DiskWrites != 1 {
		t.Fatalf("first-store stats = %+v, want one spill", st)
	}

	second := New(0, nil)
	if err := second.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	short, _, err := second.GetColumns("mcf", 1_500)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := second.GetColumns("505.mcf", 1_500)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.Stats(); st.Generations != 0 || st.DiskErrors != 0 || st.DiskHits != 1 {
		t.Fatalf("second-store stats = %+v, want one disk hit, no generation, no disk error", st)
	}
	if short != full {
		t.Error("short and full names served different columns")
	}
	for i := 0; i < want.Len(); i++ {
		if full.Record(i) != want.Record(i) {
			t.Fatalf("record %d diverges after the disk round-trip", i)
		}
	}
}
