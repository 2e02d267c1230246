package trace

import (
	"context"
	"errors"
	"testing"
	"time"
)

// streamCounts are record counts around the publication chunk: below
// one chunk, exactly one, and counts that are not a multiple of it.
var streamCounts = []int{1, 5_000, streamChunk, streamChunk + 1, 3*streamChunk - 7, 40_000}

// readStreamed reads every row of a stream's columns chunk by chunk as
// the rows are published, the way a replay does, copying each chunk
// once it is final; under -race it proves no row is read before its
// publication.
func readStreamed(t *testing.T, c *Columns, chunk int) *Columns {
	t.Helper()
	out := newColumns(c.Name, c.Len())
	for lo := 0; lo < c.Len(); lo += chunk {
		hi := min(lo+chunk, c.Len())
		if err := c.Wait(context.Background(), hi); err != nil {
			t.Fatal(err)
		}
		copy(out.PCs[lo:hi], c.PCs[lo:hi])
		copy(out.Targets[lo:hi], c.Targets[lo:hi])
		copy(out.Flags[lo:hi], c.Flags[lo:hi])
		copy(out.PIDs[lo:hi], c.PIDs[lo:hi])
		copy(out.Programs[lo:hi], c.Programs[lo:hi])
	}
	return out
}

// TestStreamMatchesGenerateColumns: a generation filling a Stream on
// its own goroutine publishes exactly GenerateColumns' rows, for every
// record count around the chunk size, read chunk by chunk behind it at
// two read granularities (the replay chunk and an unaligned one).
func TestStreamMatchesGenerateColumns(t *testing.T) {
	for _, name := range []string{"505.mcf", "apache2_prefork_c128", "chrome-1jetstream"} {
		for _, n := range streamCounts {
			p := testProfile(name, n)
			want, err := GenerateColumns(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{streamChunk, 3_000} {
				g, err := NewGenerator(p)
				if err != nil {
					t.Fatal(err)
				}
				st := NewStream(p.Name, n)
				errc := make(chan error, 1)
				go func() { errc <- g.Fill(st) }()
				got := readStreamed(t, st.Columns(), chunk)
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				for _, c := range []*Columns{got, st.Columns()} {
					if c.Name != want.Name || !equalColumns(c, want) {
						t.Fatalf("%s@%d read in %d-row chunks: streamed rows differ from GenerateColumns", name, n, chunk)
					}
				}
			}
		}
	}
}

// TestStreamFillRejectsWrongLength: a generator refuses a stream that
// does not hold its record count rather than leaving rows unwritten.
func TestStreamFillRejectsWrongLength(t *testing.T) {
	g, err := NewGenerator(testProfile("505.mcf", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Fill(NewStream("505.mcf", 99)); err == nil {
		t.Fatal("Fill of a 99-row stream from a 100-record profile succeeded")
	}
}

// TestStreamSliceWaitsOnParentRows: a Slice view of a stream waits on
// the parent's rows [lo, lo+rows), and a view of complete columns never
// waits.
func TestStreamSliceWaitsOnParentRows(t *testing.T) {
	st := NewStream("s", 3*streamChunk)
	view := st.Columns().Slice(streamChunk, 3*streamChunk)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := view.Wait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("view row 0 (parent row %d) waited with nothing published: %v", streamChunk, err)
	}
	st.publish(streamChunk + 1)
	if err := view.Wait(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := view.Slice(1, 2).Wait(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a view of a view did not add its offset: %v", err)
	}
	if err := FromRecords("r", make([]Record, 4)).Slice(1, 3).Wait(ctx, 2); err != nil {
		t.Fatalf("complete columns waited: %v", err)
	}
}

// TestStreamWaitCanceled: a wait on rows that never arrive returns the
// context's error promptly.
func TestStreamWaitCanceled(t *testing.T) {
	st := NewStream("s", 10)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- st.Columns().Wait(ctx, 10) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancel")
	}
}

// TestStreamFailWakesWaiters: Fail wakes every waiter on rows not yet
// final with the error, while rows published before it stay final.
func TestStreamFailWakesWaiters(t *testing.T) {
	st := NewStream("s", 100)
	st.publish(40)
	boom := errors.New("generation failed")
	errc := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errc <- st.Columns().Wait(context.Background(), 41) }()
	}
	time.Sleep(5 * time.Millisecond)
	st.Fail(boom)
	for i := 0; i < 3; i++ {
		if err := <-errc; !errors.Is(err, boom) {
			t.Fatalf("waiter %d: %v, want the generation's error", i, err)
		}
	}
	if err := st.Columns().Wait(context.Background(), 40); err != nil {
		t.Fatalf("published rows failed after Fail: %v", err)
	}
}
