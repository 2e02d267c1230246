package tracestore

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stbpu/internal/trace"
)

func TestGetReturnsPresetTrace(t *testing.T) {
	s := New(0, nil)
	cols, prof, err := s.GetColumns("505.mcf", 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != 5_000 {
		t.Fatalf("records = %d, want 5000", cols.Len())
	}
	if prof.Name != "505.mcf" {
		t.Fatalf("profile name = %q", prof.Name)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Generations != 1 || st.Hits != 0 {
		t.Errorf("stats after first get = %+v", st)
	}
	if _, _, err := s.GetColumns("505.mcf", 5_000); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Hits != 1 || st.Generations != 1 {
		t.Errorf("stats after repeat get = %+v", st)
	}
}

func TestUnknownPresetNotCached(t *testing.T) {
	s := New(0, nil)
	if _, _, err := s.GetColumns("no-such-workload", 100); err == nil {
		t.Fatal("expected error for unknown preset")
	}
	st := s.Stats()
	if st.Generations != 0 || st.Bytes != 0 {
		t.Errorf("failed generation leaked into stats: %+v", st)
	}
	// The failed entry must not poison later lookups: a second call retries.
	if _, _, err := s.GetColumns("no-such-workload", 100); err == nil {
		t.Fatal("expected error on retry")
	}
	if st := s.Stats(); st.Misses != 2 {
		t.Errorf("retry did not re-attempt generation: %+v", st)
	}
}

// synthGen builds tiny traces while counting real generations, so tests
// can assert singleflight and regeneration behavior exactly.
func synthGen(calls *atomic.Uint64) GenFunc {
	return func(name string, records int) (*trace.Columns, trace.Profile, error) {
		calls.Add(1)
		recs := make([]trace.Record, records)
		for i := range recs {
			recs[i] = trace.Record{PC: uint64(i)<<2 + uint64(len(name)), Kind: trace.KindCond}
		}
		return trace.FromRecords(name, recs), trace.Profile{Name: name}, nil
	}
}

func TestConcurrentGetsGenerateOnce(t *testing.T) {
	var calls atomic.Uint64
	s := New(0, synthGen(&calls))

	const goroutines = 32
	var wg sync.WaitGroup
	traces := make([]*trace.Columns, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, _, err := s.GetColumns("shared", 1_000)
			if err != nil {
				t.Error(err)
				return
			}
			traces[g] = tr
		}(g)
	}
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("generator ran %d times for one key under concurrency, want 1", got)
	}
	for g := 1; g < goroutines; g++ {
		if traces[g] != traces[0] {
			t.Fatalf("goroutine %d received a different trace pointer", g)
		}
	}
	st := s.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines)
	}
	if st.Generations != 1 {
		t.Errorf("generations = %d, want 1", st.Generations)
	}
}

// recordCountSize is a SizeOf hook that charges one byte per record,
// making budget arithmetic in eviction tests exact and self-evident.
func recordCountSize(cols *trace.Columns) int64 {
	return int64(cols.Len())
}

func TestByteBoundEviction(t *testing.T) {
	var calls atomic.Uint64
	const perTrace = 1_000
	// Room for exactly two resident traces.
	s := New(2*perTrace, synthGen(&calls))
	s.SetSizeOf(recordCountSize)

	for _, name := range []string{"a", "b", "c"} {
		if _, _, err := s.GetColumns(name, 1_000); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if s.Len() != 2 {
		t.Errorf("resident traces = %d, want 2", s.Len())
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}

	// "a" was least recently used, so it is the one that regenerates.
	calls.Store(0)
	if _, _, err := s.GetColumns("a", 1_000); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Error("evicted trace was not regenerated")
	}
	if _, _, err := s.GetColumns("c", 1_000); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Error("resident trace regenerated after unrelated eviction")
	}
}

func TestLRUOrderRespectsHits(t *testing.T) {
	var calls atomic.Uint64
	const perTrace = 1_000
	s := New(2*perTrace, synthGen(&calls))
	s.SetSizeOf(recordCountSize)

	s.GetColumns("a", 1_000)
	s.GetColumns("b", 1_000)
	s.GetColumns("a", 1_000) // refresh "a": "b" becomes the LRU victim
	s.GetColumns("c", 1_000)

	calls.Store(0)
	s.GetColumns("a", 1_000)
	if calls.Load() != 0 {
		t.Error("recently used trace was evicted")
	}
	s.GetColumns("b", 1_000)
	if calls.Load() != 1 {
		t.Error("LRU victim was not evicted")
	}
}

func TestOversizeEntryDoesNotWedgeStore(t *testing.T) {
	var calls atomic.Uint64
	s := New(1, synthGen(&calls)) // every trace exceeds the budget
	cols, _, err := s.GetColumns("big", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != 10_000 {
		t.Fatal("oversize trace not returned")
	}
	if s.Len() != 0 {
		t.Errorf("oversize entry stayed resident (%d entries)", s.Len())
	}
	if st := s.Stats(); st.Bytes != 0 {
		t.Errorf("resident bytes = %d after evicting everything", st.Bytes)
	}
}

// TestCachedEqualsFresh is the determinism gate for caching: the trace a
// cell reads from the store must be byte-identical to one generated
// directly, and to one regenerated after eviction.
func TestCachedEqualsFresh(t *testing.T) {
	encode := func(tr *trace.Columns) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, name := range []string{"505.mcf", "mysql_128con_50s"} {
		t.Run(name, func(t *testing.T) {
			fresh, _, err := PresetGenColumns(name, 8_000)
			if err != nil {
				t.Fatal(err)
			}
			want := encode(fresh)

			s := New(0, nil)
			cached, _, err := s.GetColumns(name, 8_000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encode(cached), want) {
				t.Error("cached trace differs from freshly generated")
			}

			// Evict by flooding a tiny store sized to hold exactly one
			// trace, then regenerate.
			tiny := New(ExactSize(fresh), nil)
			tiny.GetColumns(name, 8_000)
			tiny.GetColumns("519.lbm", 8_000) // evicts name
			regen, _, err := tiny.GetColumns(name, 8_000)
			if err != nil {
				t.Fatal(err)
			}
			if tiny.Stats().Evictions == 0 {
				t.Fatal("flood did not evict — regeneration path untested")
			}
			if !bytes.Equal(encode(regen), want) {
				t.Error("regenerated trace differs from original")
			}
		})
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	var calls atomic.Uint64
	const perTrace = 500
	s := New(3*perTrace, synthGen(&calls))
	s.SetSizeOf(recordCountSize)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("w%d", (g+i)%6)
				if _, _, err := s.GetColumns(name, 500); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
	if st.Hits+st.Misses != 16*50 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 16*50)
	}
	if calls.Load() != st.Generations {
		t.Errorf("generator calls %d != recorded generations %d", calls.Load(), st.Generations)
	}
}

// TestBudgetRespectedToTheByte pins the SizeOf accounting exactly: with
// a hook charging one byte per record, a budget of exactly two traces
// keeps two resident, and one byte less keeps only one.
func TestBudgetRespectedToTheByte(t *testing.T) {
	var calls atomic.Uint64

	exact := New(2_000, synthGen(&calls))
	exact.SetSizeOf(recordCountSize)
	exact.GetColumns("a", 1_000)
	exact.GetColumns("b", 1_000)
	if st := exact.Stats(); st.Bytes != 2_000 || st.Evictions != 0 {
		t.Errorf("exact-fit budget: bytes=%d evictions=%d, want 2000/0", st.Bytes, st.Evictions)
	}

	under := New(1_999, synthGen(&calls))
	under.SetSizeOf(recordCountSize)
	under.GetColumns("a", 1_000)
	under.GetColumns("b", 1_000)
	st := under.Stats()
	if st.Evictions != 1 || under.Len() != 1 {
		t.Errorf("one-byte-under budget: evictions=%d resident=%d, want 1/1", st.Evictions, under.Len())
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
}

// TestColumnsAndRecordsViewsAgree pins the served columns to the AoS
// generator: the store's columnar pipeline yields, row for row, the
// records trace.Generate produces for the same profile.
func TestColumnsAndRecordsViewsAgree(t *testing.T) {
	s := New(0, nil)
	cols, prof, err := s.GetColumns("505.mcf", 4_000)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != len(tr.Records) || cols.Name != tr.Name {
		t.Fatalf("views disagree on shape: %d/%q vs %d/%q",
			cols.Len(), cols.Name, len(tr.Records), tr.Name)
	}
	for i := range tr.Records {
		if cols.Record(i) != tr.Records[i] {
			t.Fatalf("record %d diverges between views", i)
		}
	}
}
