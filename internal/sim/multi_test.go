package sim

import (
	"context"
	"errors"
	"testing"

	"stbpu/internal/trace"
)

// TestRunColumnsMultiMatchesSequential is the trace-major determinism
// property: one RunColumnsMulti pass over a shared trace must produce,
// per model, results bit-identical to running that model alone through
// RunColumnsCtx — across every Fig. 3 kind and both dispatch tiers
// (ColumnModel and the per-record Step adapter), with distinct seeds
// proving per-model state never bleeds.
func TestRunColumnsMultiMatchesSequential(t *testing.T) {
	tr, prof := genTrace(t, "mysql_128con_50s", 30_000)
	cols := trace.FromTrace(tr)

	// A heterogeneous fleet: every kind as its columnar self, plus the
	// step-only fallbacks of a couple of kinds, each with its own seed.
	type spec struct {
		name string
		mk   func() Model
	}
	var specs []spec
	for i, kind := range Fig3Kinds() {
		kind, seed := kind, uint64(11+i)
		specs = append(specs, spec{
			name: kind.String(),
			mk: func() Model {
				return New(kind, Options{SharedTokens: prof.SharedTokens, Seed: seed})
			},
		})
	}
	specs = append(specs,
		spec{"step-only-stbpu", func() Model {
			return stepOnly{New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 29})}
		}},
		spec{"step-only-baseline", func() Model {
			return stepOnly{New(KindBaseline, Options{SharedTokens: prof.SharedTokens, Seed: 31})}
		}},
	)

	models := make([]Model, len(specs))
	for i, sp := range specs {
		models[i] = sp.mk()
	}
	got, err := RunColumnsMulti(context.Background(), models, cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(specs) {
		t.Fatalf("got %d results for %d models", len(got), len(specs))
	}
	for i, sp := range specs {
		want, err := RunColumnsCtx(context.Background(), sp.mk(), cols)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s: multi %+v != sequential %+v", sp.name, got[i], want)
		}
	}
}

// TestRunColumnsMultiEdgeCases pins the degenerate shapes: no models,
// one model (the RunColumnsCtx delegation), and the empty trace.
func TestRunColumnsMultiEdgeCases(t *testing.T) {
	tr, prof := genTrace(t, "505.mcf", 5_000)
	cols := trace.FromTrace(tr)

	res, err := RunColumnsMulti(context.Background(), nil, cols)
	if err != nil || res != nil {
		t.Fatalf("no models: got %v, %v", res, err)
	}

	one, err := RunColumnsMulti(context.Background(),
		[]Model{New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7})}, cols)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunColumnsCtx(context.Background(),
		New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7}), cols)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != want {
		t.Fatalf("single model: %+v != %+v", one, want)
	}

	empty := trace.FromRecords("empty", nil)
	res, err = RunColumnsMulti(context.Background(),
		[]Model{New(KindBaseline, Options{}), New(KindSTBPU, Options{})}, empty)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Records != 0 || r.Conds != 0 {
			t.Fatalf("empty trace produced %+v", r)
		}
	}
}

// TestRunColumnsMultiCancellation: an already-canceled context aborts
// before stepping, and a cancel raised inside one model's first chunk is
// observed at the chunk barrier — every model has stepped the same
// number of chunks when the run aborts.
func TestRunColumnsMultiCancellation(t *testing.T) {
	tr, prof := genTrace(t, "505.mcf", 4*runCheckInterval)
	cols := trace.FromTrace(tr)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	models := []Model{
		New(KindBaseline, Options{SharedTokens: prof.SharedTokens}),
		New(KindSTBPU, Options{SharedTokens: prof.SharedTokens}),
	}
	if _, err := RunColumnsMulti(ctx, models, cols); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cc := &cancelingChunks{m: New(KindBaseline, Options{SharedTokens: prof.SharedTokens}), cancel: cancel}
	models = []Model{cc, New(KindSTBPU, Options{SharedTokens: prof.SharedTokens})}
	if _, err := RunColumnsMulti(ctx, models, cols); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v, want context.Canceled", err)
	}
	if cc.chunks != 1 {
		t.Errorf("chunks after cancel = %d, want 1 (cancel lands at the chunk barrier)", cc.chunks)
	}
}

// BenchmarkReplayMulti is the trace-major headline number: one pass
// feeding 4 models (the acceptance bar is ≥1.5× over 4 sequential
// columnar replays, which model-major measures on the same fleet).
func BenchmarkReplayMulti(b *testing.B) {
	tr, p := genTrace(b, "505.mcf", 100_000)
	cols := trace.FromTrace(tr)
	kinds := Fig3Kinds()[:4]
	fleet := func() []Model {
		models := make([]Model, len(kinds))
		for i, kind := range kinds {
			models[i] = New(kind, Options{SharedTokens: p.SharedTokens, Seed: uint64(i)})
		}
		return models
	}
	b.Run("trace-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunColumnsMulti(context.Background(), fleet(), cols); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("model-major", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, m := range fleet() {
				if _, err := RunColumnsCtx(context.Background(), m, cols); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
