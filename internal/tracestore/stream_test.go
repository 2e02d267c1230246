package tracestore

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
)

// sameRows reports whether two complete traces hold the same name and
// rows.
func sameRows(a, b *trace.Columns) bool {
	if a.Name != b.Name || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Record(i) != b.Record(i) {
			return false
		}
	}
	return true
}

// TestStreamColumnsMatchesGenerateColumns: the store's streamed
// generation serves exactly the rows GenerateColumns builds, for presets
// and spec workloads, at record counts that are not multiples of the
// publication chunk (one below it), once the replay has waited for
// them; the profile is the one GetColumns returns.
func TestStreamColumnsMatchesGenerateColumns(t *testing.T) {
	spec.RegisterBuiltin()
	type source struct {
		name string
		gen  func(records int) (*trace.Columns, error)
	}
	sources := []source{}
	for _, name := range []string{"505.mcf", "mysql_128con_50s"} {
		p, err := trace.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{name, func(n int) (*trace.Columns, error) {
			return trace.GenerateColumns(p.WithRecords(n))
		}})
	}
	for _, s := range spec.Builtin() {
		s := s
		sources = append(sources, source{s.WorkloadName(), func(n int) (*trace.Columns, error) {
			return s.GenerateColumns(n, 0)
		}})
	}
	for _, src := range sources {
		for _, n := range []int{4_000, 8_193, 20_001} {
			want, err := src.gen(n)
			if err != nil {
				t.Fatal(err)
			}
			s := New(0, nil)
			cols, prof, err := s.StreamColumns(src.name, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := cols.Wait(context.Background(), cols.Len()); err != nil {
				t.Fatal(err)
			}
			if !sameRows(cols, want) {
				t.Fatalf("%s@%d: streamed rows differ from GenerateColumns", src.name, n)
			}
			wantProf, err := PresetProfile(src.name, n)
			if err != nil {
				t.Fatal(err)
			}
			if prof != wantProf {
				t.Errorf("%s@%d: streamed profile %+v, want %+v", src.name, n, prof, wantProf)
			}
			s.Wait()
			if st := s.Stats(); st.Misses != 1 || st.Generations != 1 || st.Bytes != ExactSize(cols) {
				t.Errorf("%s@%d: stats after the stream = %+v", src.name, n, st)
			}
		}
	}
}

// TestGetColumnsOfInFlightKeyIsComplete: a GetColumns of a key whose
// streamed generation is in flight counts a hit, shares the stream's
// columns and returns only when every row is final (under -race, the
// full comparison below would race with the generator otherwise).
func TestGetColumnsOfInFlightKeyIsComplete(t *testing.T) {
	const n = 60_000
	s := New(0, nil)
	streamed, _, err := s.StreamColumns("505.mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*trace.Columns, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _, err := s.GetColumns("505.mcf", n)
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	want, _, err := PresetGenColumns("505.mcf", n)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c != streamed {
			t.Fatalf("lookup %d got another copy of the trace", i)
		}
		if !sameRows(c, want) {
			t.Fatalf("lookup %d: rows differ from the generated trace", i)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 4 || st.Generations != 1 {
		t.Errorf("stats = %+v, want 1 miss, 4 hits, 1 generation", st)
	}
}

// TestFailedGenerationFailsEveryWaiter: a generation that fails fails
// every lookup waiting on it, GetColumns and StreamColumns alike, counts
// no generation, and is not cached: the next lookup runs the generator
// again.
func TestFailedGenerationFailsEveryWaiter(t *testing.T) {
	boom := errors.New("generator failed")
	var calls atomic.Uint64
	release := make(chan struct{})
	s := New(0, func(name string, records int) (*trace.Columns, trace.Profile, error) {
		calls.Add(1)
		<-release
		return nil, trace.Profile{}, boom
	})
	const waiters = 6
	errc := make(chan error, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		go func(i int) {
			started.Done()
			var err error
			if i%2 == 0 {
				_, _, err = s.GetColumns("k", 10)
			} else {
				_, _, err = s.StreamColumns("k", 10)
			}
			errc <- err
		}(i)
	}
	started.Wait()
	for st := s.Stats(); st.Hits+st.Misses < waiters; st = s.Stats() {
		runtime.Gosched() // until every waiter has looked the key up
	}
	close(release)
	for i := 0; i < waiters; i++ {
		if err := <-errc; !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the generator's error", err)
		}
	}
	if st := s.Stats(); st.Generations != 0 || st.Bytes != 0 || st.Misses != 1 {
		t.Errorf("failed generation leaked into stats: %+v", st)
	}
	if _, _, err := s.StreamColumns("k", 10); !errors.Is(err, boom) {
		t.Fatalf("retry: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("generator ran %d times, want 2 (the failure was cached)", got)
	}
}

// TestStreamedSpillOnDiskAfterWait: a streamed generation with a disk
// tier is admitted and spilled behind the replay, and once Wait returns
// its spill is on disk and counted, so a second store reads it.
func TestStreamedSpillOnDiskAfterWait(t *testing.T) {
	dir := t.TempDir()
	s := New(0, nil)
	s.SetMapped(true)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	cols, _, err := s.StreamColumns("505.mcf", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := cols.Wait(context.Background(), cols.Len()); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if st := s.Stats(); st.Generations != 1 || st.DiskMisses != 1 || st.DiskWrites != 1 {
		t.Fatalf("stats after Wait = %+v, want 1 generation, 1 disk miss, 1 spill", st)
	}
	if _, err := os.Stat(s.diskPath(Key{Name: "505.mcf", Records: 20_000})); err != nil {
		t.Fatal(err)
	}
	warm := New(0, nil)
	warm.SetMapped(true)
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, _, err := warm.StreamColumns("505.mcf", 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.Generations != 0 {
		t.Fatalf("warm store stats = %+v, want a disk hit", st)
	}
	if !sameRows(got, cols) {
		t.Fatal("the spill differs from the streamed trace")
	}
}
