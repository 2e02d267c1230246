package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// spaceCell is the reference per-cell computation the grouped spaces
// must reproduce: a pure function of (shard, seed).
func spaceCell(shard int, seed uint64) uint64 {
	return seed*2654435761 + uint64(shard)
}

// sharedCalls records the shard lists a space's Shared was called with.
type sharedCalls struct {
	mu    sync.Mutex
	calls [][]int
}

func (c *sharedCalls) add(shards []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, append([]int(nil), shards...))
}

// sorted returns the recorded calls ordered by first shard.
func (c *sharedCalls) sorted() [][]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([][]int(nil), c.calls...)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// groupedSpace is a test space of n cells in groups of size consecutive
// shards. Shared records its shards and checks their seeds; each cell
// checks it belongs to the shared group and returns spaceCell.
func groupedSpace(scope string, n, size int, rootSeed uint64, calls *sharedCalls) Space[[]int, uint64] {
	return Space[[]int, uint64]{
		Scope: scope, N: n,
		Group: func(shard int) string { return Locality("g", shard/size) },
		Shared: func(ctx context.Context, shards []int, seeds []uint64) ([]int, error) {
			calls.add(shards)
			for i, shard := range shards {
				if i > 0 && shards[i-1] >= shard {
					return nil, fmt.Errorf("shards out of order: %v", shards)
				}
				if want := ShardSeed(rootSeed, scope, shard); seeds[i] != want {
					return nil, fmt.Errorf("shard %d seed %#x, want %#x", shard, seeds[i], want)
				}
			}
			return shards, nil
		},
		Cell: func(ctx context.Context, shared []int, shard int, seed uint64) (uint64, error) {
			for _, s := range shared {
				if s == shard {
					return spaceCell(shard, seed), nil
				}
			}
			return 0, fmt.Errorf("shard %d not in its shared group %v", shard, shared)
		},
	}
}

// referenceCells maps spaceCell over an ungrouped n-cell space.
func referenceCells(t *testing.T, scope string, n int, rootSeed uint64) []uint64 {
	t.Helper()
	want, err := mapCells(context.Background(), NewPool(2, rootSeed), "", Params{}, Cells(scope, n,
		func(ctx context.Context, shard int, seed uint64) (uint64, error) {
			return spaceCell(shard, seed), nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSpaceGroupsMatchUngrouped pins the scheduling-only contract: a
// grouped space returns exactly what the per-cell space returns, with
// grouping on (Shared once per group, over the group's shards with
// their ShardSeeds in ascending order) and off (Shared once per cell).
func TestSpaceGroupsMatchUngrouped(t *testing.T) {
	const n, size = 12, 3
	want := referenceCells(t, "sp-scope", n, 42)
	for _, grouped := range []bool{true, false} {
		pool := NewPool(2, 42)
		pool.SetTraceMajor(grouped)
		if pool.TraceMajor() != grouped {
			t.Fatalf("TraceMajor() = %v after SetTraceMajor(%v)", pool.TraceMajor(), grouped)
		}
		var calls sharedCalls
		got, err := mapCells(context.Background(), pool, "", Params{}, groupedSpace("sp-scope", n, size, 42, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("grouped=%v: results diverge from the ungrouped space", grouped)
		}
		var wantCalls [][]int
		for shard := 0; shard < n; shard++ {
			if !grouped {
				wantCalls = append(wantCalls, []int{shard})
			} else if shard%size == 0 {
				wantCalls = append(wantCalls, []int{shard, shard + 1, shard + 2})
			}
		}
		if got := calls.sorted(); !reflect.DeepEqual(got, wantCalls) {
			t.Errorf("grouped=%v: Shared called with %v, want %v", grouped, got, wantCalls)
		}
	}
}

// TestSpaceSharedSeeds pins that a group whose shards interleave with
// another's receives exactly its own shards, ascending, with the
// ShardSeeds each cell gets on its own.
func TestSpaceSharedSeeds(t *testing.T) {
	const n = 10
	var calls sharedCalls
	_, err := mapCells(context.Background(), NewPool(1, 7), "", Params{}, Space[struct{}, struct{}]{
		Scope: "sp-seeds", N: n,
		Group: func(shard int) string { return Locality("parity", shard%2) },
		Shared: func(ctx context.Context, shards []int, seeds []uint64) (struct{}, error) {
			calls.add(shards)
			for i, shard := range shards {
				if want := ShardSeed(7, "sp-seeds", shard); seeds[i] != want {
					return struct{}{}, fmt.Errorf("shard %d seed %#x, want %#x", shard, seeds[i], want)
				}
			}
			return struct{}{}, nil
		},
		Cell: func(ctx context.Context, _ struct{}, shard int, seed uint64) (struct{}, error) {
			return struct{}{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := calls.sorted(), [][]int{{0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Shared called with %v, want %v", got, want)
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

// TestSpaceGroupStampsLocality pins that Group labels every cell spec,
// with grouping on and off — scheduling-only metadata either way.
func TestSpaceGroupStampsLocality(t *testing.T) {
	const n, size = 6, 3
	for _, grouped := range []bool{true, false} {
		rec := &specRecordingBackend{inner: NewLocalBackend(2)}
		pool := NewPool(2, 42)
		pool.SetBackend(rec)
		pool.SetTraceMajor(grouped)
		var calls sharedCalls
		if _, err := mapCells(context.Background(), pool, "", Params{}, groupedSpace("sp-loc", n, size, 42, &calls)); err != nil {
			t.Fatal(err)
		}
		if len(rec.specs) != n {
			t.Fatalf("backend saw %d specs, want %d", len(rec.specs), n)
		}
		for _, s := range rec.specs {
			if want := Locality("g", s.Shard/size); s.Locality != want {
				t.Errorf("grouped=%v: shard %d locality %q, want %q", grouped, s.Shard, s.Locality, want)
			}
		}
	}
}

// TestSpaceSharedError: a failing Shared surfaces through every member
// cell and Map reports the lowest-shard root cause.
func TestSpaceSharedError(t *testing.T) {
	boom := errors.New("boom")
	_, err := mapCells(context.Background(), NewPool(2, 1), "", Params{}, Joint("sp-err", 6,
		func(shard int) string { return Locality("g", shard/3) },
		func(ctx context.Context, shards []int, seeds []uint64) ([]int, error) {
			if shards[0] == 3 {
				return nil, boom
			}
			return make([]int, len(shards)), nil
		}))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the group error", err)
	}
}

// TestJointRejectsShortGroupRun: a joint run must return one result per
// shard it was given.
func TestJointRejectsShortGroupRun(t *testing.T) {
	_, err := mapCells(context.Background(), NewPool(1, 1), "", Params{}, Joint("sp-short", 4,
		func(int) string { return "all" },
		func(ctx context.Context, shards []int, seeds []uint64) ([]int, error) {
			return make([]int, len(shards)-1), nil
		}))
	if err == nil || !strings.Contains(err.Error(), "group run returned 3 results for 4 shards") {
		t.Fatalf("err = %v, want the short group run refused", err)
	}
}

// cellStore is a resumed-journal stand-in: a sink that records every
// completed cell and serves the ones it holds back to Map.
type cellStore struct {
	mu    sync.Mutex
	cells map[int]CellResult
}

func (s *cellStore) CellDone(c Cell, spec CellSpec, res CellResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cells == nil {
		s.cells = map[int]CellResult{}
	}
	s.cells[spec.Shard] = res
}

func (s *cellStore) LookupCell(spec CellSpec) (CellResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cells[spec.Shard]
	return r, ok
}

// TestResumeSharesOverPendingCellsOnly: a resumed run whose journal
// holds half of a group computes the group's shared value once, over
// exactly the pending shards, and still returns what an unjournaled run
// returns.
func TestResumeSharesOverPendingCellsOnly(t *testing.T) {
	const n, size, seed = 4, 4, 5
	run := func(sink Sink, calls *sharedCalls) []uint64 {
		t.Helper()
		pool := NewPool(2, seed)
		pool.SetSink(sink)
		out, err := mapCells(context.Background(), pool, "_space-resume", Params{}, groupedSpace("sp-resume", n, size, seed, calls))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := &cellStore{}
	var fullCalls sharedCalls
	want := run(full, &fullCalls)

	half := &cellStore{cells: map[int]CellResult{0: full.cells[0], 1: full.cells[1]}}
	var calls sharedCalls
	if got := run(half, &calls); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed output %v, want %v", got, want)
	}
	if got := calls.sorted(); !reflect.DeepEqual(got, [][]int{{2, 3}}) {
		t.Errorf("Shared called with %v, want once with the pending shards [2 3]", got)
	}
}
