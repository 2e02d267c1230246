package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// traceMajorCell is the reference per-cell computation the grouped runs
// must reproduce: a pure function of (shard, seed).
func traceMajorCell(shard int, seed uint64) uint64 {
	return seed*2654435761 + uint64(shard)
}

// groupedRun builds a MapTraceMajor run func over traceMajorCell,
// counting invocations and recording observed group sizes.
func groupedRun(calls *atomic.Uint64, sizes chan<- int) func(ctx context.Context, shards []int, seeds []uint64) ([]uint64, error) {
	return func(ctx context.Context, shards []int, seeds []uint64) ([]uint64, error) {
		calls.Add(1)
		if sizes != nil {
			sizes <- len(shards)
		}
		out := make([]uint64, len(shards))
		for i, shard := range shards {
			out[i] = traceMajorCell(shard, seeds[i])
		}
		return out, nil
	}
}

// TestMapTraceMajorMatchesMap pins the scheduling-only contract: the
// grouped path returns exactly what per-cell Map returns, with the
// trace-major flag on (one run per group) and off (one run per cell).
func TestMapTraceMajorMatchesMap(t *testing.T) {
	const n, groupSize = 12, 3
	key := func(shard int) int { return shard / groupSize }

	want, err := Map(context.Background(), NewPool(2, 42), "tm-scope", n,
		func(ctx context.Context, shard int, seed uint64) (uint64, error) {
			return traceMajorCell(shard, seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}

	for _, traceMajor := range []bool{true, false} {
		pool := NewPool(2, 42)
		pool.SetTraceMajor(traceMajor)
		if pool.TraceMajor() != traceMajor {
			t.Fatalf("TraceMajor() = %v after SetTraceMajor(%v)", pool.TraceMajor(), traceMajor)
		}
		var calls atomic.Uint64
		got, err := MapTraceMajor(context.Background(), pool, "tm-scope", n, key, nil, groupedRun(&calls, nil))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace-major=%v: grouped results diverge from Map", traceMajor)
		}
		wantCalls := uint64(n)
		if traceMajor {
			wantCalls = n / groupSize
		}
		if calls.Load() != wantCalls {
			t.Errorf("trace-major=%v: run called %d times, want %d", traceMajor, calls.Load(), wantCalls)
		}
	}
}

// TestMapTraceMajorSeeds pins that grouped runs receive exactly the
// ShardSeeds Map would hand each cell, in ascending shard order.
func TestMapTraceMajorSeeds(t *testing.T) {
	const n = 10
	pool := NewPool(1, 7)
	_, err := MapTraceMajor(context.Background(), pool, "tm-seeds", n,
		func(shard int) int { return shard % 2 },
		nil,
		func(ctx context.Context, shards []int, seeds []uint64) ([]struct{}, error) {
			if len(shards) != n/2 {
				return nil, fmt.Errorf("group of %d shards, want %d", len(shards), n/2)
			}
			for i, shard := range shards {
				if i > 0 && shards[i-1] >= shard {
					return nil, fmt.Errorf("shards out of order: %v", shards)
				}
				if want := ShardSeed(7, "tm-seeds", shard); seeds[i] != want {
					return nil, fmt.Errorf("shard %d seed %#x, want %#x", shard, seeds[i], want)
				}
			}
			return make([]struct{}, len(shards)), nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapTraceMajorWantFilter pins the worker-side subset path: with a
// want filter in the context (as captureScenarioCells installs), groups
// contain only requested shards, so a worker never replays traces for
// cells it was not asked for — and the subset results are the same
// values the full run produces.
func TestMapTraceMajorWantFilter(t *testing.T) {
	const n, groupSize = 12, 3
	key := func(shard int) int { return shard / groupSize }
	want := map[int]bool{1: true, 2: true, 7: true}

	// The filtered ctx flows through a capture backend so only wanted
	// shards execute, mirroring the worker path.
	cap := &captureBackend{scope: "tm-filter", want: want, inner: NewLocalBackend(2)}
	pool := NewPool(2, 99)
	pool.SetBackend(cap)
	pool.beginScenario("tm-test", Params{})
	defer pool.endScenario()

	var calls atomic.Uint64
	sizes := make(chan int, n)
	ctx := withTraceMajorWant(context.Background(), "tm-filter", want)
	_, err := MapTraceMajor(ctx, pool, "tm-filter", n, key, nil, groupedRun(&calls, sizes))
	if !errors.Is(err, errCellsCaptured) {
		t.Fatalf("err = %v, want errCellsCaptured", err)
	}
	if !cap.captured || len(cap.results) != len(want) {
		t.Fatalf("captured %d results, want %d", len(cap.results), len(want))
	}
	// Two groups were touched (shards {1,2} → group 0, {7} → group 2):
	// exactly two runs, sized to the wanted subsets.
	if calls.Load() != 2 {
		t.Errorf("run called %d times, want 2", calls.Load())
	}
	close(sizes)
	total := 0
	for s := range sizes {
		total += s
	}
	if total != len(want) {
		t.Errorf("groups covered %d shards, want %d (no unrequested replay)", total, len(want))
	}
	for _, r := range cap.results {
		var got uint64
		if err := decodeInto(&r, &got); err != nil {
			t.Fatal(err)
		}
		if want := traceMajorCell(r.Shard, ShardSeed(99, "tm-filter", r.Shard)); got != want {
			t.Errorf("shard %d: subset value %d != full-run value %d", r.Shard, got, want)
		}
	}
}

// specRecordingBackend captures the specs Map hands its backend so
// tests can inspect stamped metadata (Locality).
type specRecordingBackend struct {
	inner *LocalBackend
	specs []CellSpec
}

func (b *specRecordingBackend) Name() string { return "spec-recorder" }
func (b *specRecordingBackend) Close() error { return nil }
func (b *specRecordingBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	b.specs = append(b.specs, specs...)
	return b.inner.Run(ctx, specs)
}

// TestMapTraceMajorLocality pins that the locality labeler stamps every
// cell spec — on the grouped path and on the model-major fallback — and
// that the label is the scheduling-only metadata the contract promises
// (results identical with and without it).
func TestMapTraceMajorLocality(t *testing.T) {
	const n, groupSize = 6, 3
	key := func(shard int) int { return shard / groupSize }
	loc := func(shard int) string { return Locality("wl", shard/groupSize) }

	for _, traceMajor := range []bool{true, false} {
		rec := &specRecordingBackend{inner: NewLocalBackend(2)}
		pool := NewPool(2, 42)
		pool.SetBackend(rec)
		pool.SetTraceMajor(traceMajor)
		var calls atomic.Uint64
		got, err := MapTraceMajor(context.Background(), pool, "tm-loc", n, key, loc, groupedRun(&calls, nil))
		if err != nil {
			t.Fatal(err)
		}
		want, err := Map(context.Background(), NewPool(2, 42), "tm-loc", n,
			func(ctx context.Context, shard int, seed uint64) (uint64, error) {
				return traceMajorCell(shard, seed), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trace-major=%v: locality-labeled results diverge from Map", traceMajor)
		}
		if len(rec.specs) != n {
			t.Fatalf("backend saw %d specs, want %d", len(rec.specs), n)
		}
		for _, s := range rec.specs {
			if want := Locality("wl", s.Shard/groupSize); s.Locality != want {
				t.Errorf("trace-major=%v: shard %d locality %q, want %q", traceMajor, s.Shard, s.Locality, want)
			}
		}
	}
}

// TestMapTraceMajorGroupError: a failing group surfaces through every
// member cell and Map reports the lowest-shard root cause.
func TestMapTraceMajorGroupError(t *testing.T) {
	boom := errors.New("boom")
	_, err := MapTraceMajor(context.Background(), NewPool(2, 1), "tm-err", 6,
		func(shard int) int { return shard / 3 },
		nil,
		func(ctx context.Context, shards []int, seeds []uint64) ([]int, error) {
			if shards[0] == 3 {
				return nil, boom
			}
			return make([]int, len(shards)), nil
		})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the group error", err)
	}
}
