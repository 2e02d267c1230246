package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"stbpu/internal/trace"
)

// streamTrace starts generating the preset's n-record trace into a
// stream on its own goroutine and returns the stream's columns at once,
// as tracestore.Store.StreamColumns does; the returned channel yields
// the generation's error.
func streamTrace(t *testing.T, name string, n int) (*trace.Columns, <-chan error) {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := trace.NewGenerator(p.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	st := trace.NewStream(p.Name, n)
	errc := make(chan error, 1)
	go func() { errc <- g.Fill(st) }()
	return st.Columns(), errc
}

// TestReplayOverStreamMatchesComplete: RunColumnsCtx and
// RunColumnsMulti over columns whose rows are still being generated
// return exactly the results of the complete trace, for record counts
// around the chunk size, whole and through a Slice view (the phase
// segments of warmup and workloads).
func TestReplayOverStreamMatchesComplete(t *testing.T) {
	mk := func() []Model {
		models := make([]Model, 0, len(Fig3Kinds()))
		for i, k := range Fig3Kinds() {
			models = append(models, New(k, Options{SharedTokens: true, Seed: uint64(3 + i)}))
		}
		return models
	}
	for _, n := range []int{5_000, runCheckInterval, 2*runCheckInterval + 333} {
		tr, _ := genTrace(t, "mysql_128con_50s", n)
		full := trace.FromTrace(tr)
		lo, hi := n/3, n-17
		want, err := RunColumnsMulti(context.Background(), mk(), full)
		if err != nil {
			t.Fatal(err)
		}
		wantSeg, err := RunColumnsMulti(context.Background(), mk(), full.Slice(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		wantOne, err := RunColumnsCtx(context.Background(), New(KindSTBPU, Options{Seed: 9}), full)
		if err != nil {
			t.Fatal(err)
		}

		cols, errc := streamTrace(t, "mysql_128con_50s", n)
		got, err := RunColumnsMulti(context.Background(), mk(), cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("n=%d %s: streamed %+v != complete %+v", n, want[i].Model, got[i], want[i])
			}
		}

		cols, errc = streamTrace(t, "mysql_128con_50s", n)
		gotSeg, err := RunColumnsMulti(context.Background(), mk(), cols.Slice(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantSeg {
			if gotSeg[i] != wantSeg[i] {
				t.Errorf("n=%d segment %s: streamed %+v != complete %+v", n, wantSeg[i].Model, gotSeg[i], wantSeg[i])
			}
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}

		cols, errc = streamTrace(t, "mysql_128con_50s", n)
		gotOne, err := RunColumnsCtx(context.Background(), New(KindSTBPU, Options{Seed: 9}), cols)
		if err != nil {
			t.Fatal(err)
		}
		if gotOne != wantOne {
			t.Errorf("n=%d: RunColumnsCtx streamed %+v != complete %+v", n, gotOne, wantOne)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayWaitingOnRowsCancels: a replay blocked on rows that are not
// yet final returns context.Canceled promptly when its context is
// canceled, on both replay loops; a failed generation fails it with the
// generation's error.
func TestReplayWaitingOnRowsCancels(t *testing.T) {
	run := map[string]func(context.Context, *trace.Columns) error{
		"RunColumnsCtx": func(ctx context.Context, c *trace.Columns) error {
			_, err := RunColumnsCtx(ctx, New(KindBaseline, Options{}), c)
			return err
		},
		"RunColumnsMulti": func(ctx context.Context, c *trace.Columns) error {
			_, err := RunColumnsMulti(ctx, []Model{New(KindBaseline, Options{}), New(KindSTBPU, Options{})}, c)
			return err
		},
	}
	for name, replay := range run {
		st := trace.NewStream("never", 3*runCheckInterval)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- replay(ctx, st.Columns()) }()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %v, want context.Canceled", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: replay still waiting on rows 5 s after cancel", name)
		}

		st = trace.NewStream("failing", 3*runCheckInterval)
		boom := errors.New("generation failed")
		go func() { errc <- replay(context.Background(), st.Columns()) }()
		time.Sleep(5 * time.Millisecond)
		st.Fail(boom)
		if err := <-errc; !errors.Is(err, boom) {
			t.Errorf("%s over a failed generation: %v, want its error", name, err)
		}
	}
}
