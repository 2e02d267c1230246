package harness

// Worker-side execution: executeCells runs a chunk from the scenario's
// declared Space, never calls its aggregate, and refuses malformed
// chunks whole.

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stbpu/internal/snapstore"
	"stbpu/internal/spill"
)

const (
	// hugeCells sizes a scope whose whole-scope work would dwarf one
	// chunk's.
	hugeCells = 1_000_000
	// keyedCells and keyedGroup shape the keyed scope ExecuteChunk runs.
	keyedCells = 100_000
	keyedGroup = 8
)

var (
	// countedAggregates counts calls of the _worker-counted scenario's
	// aggregate.
	countedAggregates atomic.Int64
	// workerGroupCalls records _worker-groups' Shared calls.
	workerGroupCalls sharedCalls
)

// registerWorkerScenarios installs the scenarios the executeCells tests
// address; registerExecScenarios calls it.
func registerWorkerScenarios() {
	registerSpace("_worker-huge", "a scope far larger than any chunk", Params{},
		func(Params, *Pool) (Space[struct{}, int], error) {
			return Cells("_worker-huge", hugeCells, func(ctx context.Context, shard int, seed uint64) (int, error) {
				return shard, nil
			}), nil
		})
	registerSpace("_worker-keyed", "a keyed scope of small locality groups", Params{},
		func(Params, *Pool) (Space[uint64, uint64], error) {
			return Space[uint64, uint64]{
				Scope: "_worker-keyed", N: keyedCells,
				Group: func(shard int) string { return Locality("k", shard/keyedGroup) },
				Shared: func(ctx context.Context, shards []int, seeds []uint64) (uint64, error) {
					var sum uint64
					for _, s := range seeds {
						sum += s
					}
					return sum, nil
				},
				Cell: func(ctx context.Context, sum uint64, shard int, seed uint64) (uint64, error) {
					return sum ^ seed, nil
				},
			}, nil
		})
	registerSpace("_worker-groups", "a grouped scope recording its shared calls", Params{Trials: 12},
		func(p Params, pool *Pool) (Space[[]int, uint64], error) {
			return groupedSpace("_worker-groups", p.Trials, 3, pool.RootSeed(), &workerGroupCalls), nil
		})
	registerSpace("_worker-bad-space", "a scenario whose space cannot be built", Params{},
		func(Params, *Pool) (Space[struct{}, int], error) {
			return Space[struct{}, int]{}, errors.New("no such cell space")
		})
	registerSpace("_worker-spill", "cells that each put a checkpoint", Params{Trials: 3},
		func(p Params, pool *Pool) (Space[struct{}, int], error) {
			return Cells("_worker-spill", p.Trials, func(ctx context.Context, shard int, seed uint64) (int, error) {
				pool.Snaps().Put(snapstore.Key{Model: "m", Workload: "w", Records: p.Trials, Offset: shard}, []byte{byte(shard)})
				return shard, nil
			}), nil
		})
	Register(Define("_worker-counted", "a scenario counting its aggregate calls", Params{Trials: 4},
		func(p Params, _ *Pool) (Space[struct{}, int], func([]int) (int, error), error) {
			sp := Cells("_worker-counted", p.Trials, func(ctx context.Context, shard int, seed uint64) (int, error) {
				return shard, nil
			})
			return sp, func([]int) (int, error) {
				countedAggregates.Add(1)
				return 0, errors.New("a worker aggregated the scenario")
			}, nil
		}))
}

// chunk addresses shards of a registered scenario's scope the way a
// coordinator's work frame does.
func chunk(scenario string, params Params, root uint64, shards ...int) []CellSpec {
	specs := make([]CellSpec, len(shards))
	for i, shard := range shards {
		specs[i] = CellSpec{Scenario: scenario, Params: params, Scope: scenario, Shard: shard, RootSeed: root}
	}
	return specs
}

// TestExecuteCellsNeverRunsScenario: a worker executes a chunk from the
// scenario's Space; the scenario's aggregate is never called.
func TestExecuteCellsNeverRunsScenario(t *testing.T) {
	before := countedAggregates.Load()
	results, err := executeCells(context.Background(), chunk("_worker-counted", Params{Trials: 4}, 3, 1, 3), NewPool(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Shard != 1 || string(results[0].Value) != "1" || string(results[1].Value) != "3" {
		t.Errorf("results = %+v", results)
	}
	if n := countedAggregates.Load() - before; n != 0 {
		t.Errorf("aggregate called %d times, want 0", n)
	}
}

// TestExecuteCellsGroupsRequestedShardsOnly: a worker handed part of a
// scope computes each group's shared value over the chunk's shards only,
// and returns the values the full run gives those cells.
func TestExecuteCellsGroupsRequestedShardsOnly(t *testing.T) {
	const root = 99
	params := Params{Trials: 12}
	full := referenceCells(t, "_worker-groups", params.Trials, root)
	workerGroupCalls = sharedCalls{}
	results, err := executeCells(context.Background(), chunk("_worker-groups", params, root, 7, 1, 2), NewPool(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := workerGroupCalls.sorted(), [][]int{{1, 2}, {7}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Shared called with %v, want %v (no unrequested cells)", got, want)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	for i := range results {
		var got uint64
		if err := decodeInto(&results[i], &got); err != nil {
			t.Fatal(err)
		}
		if shard := results[i].Shard; got != full[shard] {
			t.Errorf("shard %d: chunk value %d, full-run value %d", shard, got, full[shard])
		}
	}
}

// TestExecuteCellsRefusesMalformedChunks: a chunk that is not one
// batch's cells, or that names cells its scenario does not declare,
// fails whole and permanently; an unregistered scenario stays
// retryable, since another worker may have it.
func TestExecuteCellsRefusesMalformedChunks(t *testing.T) {
	wire := Params{Trials: 16}
	mixedScopes := chunk("_exec-wire", wire, 1, 0, 1)
	mixedScopes[1].Scope = "_exec-other"
	mixedParams := chunk("_exec-wire", wire, 1, 0, 1)
	mixedParams[1].Params = Params{Trials: 8}
	wrongScope := chunk("_exec-wire", wire, 1, 0)
	wrongScope[0].Scope = "_exec-undeclared"
	cases := []struct {
		name      string
		specs     []CellSpec
		permanent bool
		want      string
	}{
		{"mixed scopes", mixedScopes, true, "mixes cells"},
		{"mixed params", mixedParams, true, "mixes cells"},
		{"shard at N", chunk("_exec-wire", wire, 1, 3, 16), true, "outside its 16-cell space"},
		{"negative shard", chunk("_exec-wire", wire, 1, -1), true, "outside its 16-cell space"},
		{"undeclared scope", wrongScope, true, "not \"_exec-undeclared\""},
		{"space error", chunk("_worker-bad-space", Params{}, 1, 0), true, "no such cell space"},
		{"unregistered scenario", chunk("_worker-nowhere", Params{}, 1, 0), false, "not registered"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, err := executeCells(context.Background(), tc.specs, NewPool(1, 0))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if errors.Is(err, ErrPermanent) != tc.permanent {
				t.Errorf("permanent = %v, want %v: %v", !tc.permanent, tc.permanent, err)
			}
			if results != nil {
				t.Errorf("a refused chunk returned %d results", len(results))
			}
		})
	}
	t.Run("empty chunk", func(t *testing.T) {
		results, err := executeCells(context.Background(), nil, NewPool(1, 0))
		if err != nil || len(results) != 0 {
			t.Errorf("empty chunk = %v, %v; want no results and no error", results, err)
		}
	})
}

// TestExecuteCellsCostsTheChunk: one cell of a million-cell scope costs
// the worker one cell's allocations, not the scope's.
func TestExecuteCellsCostsTheChunk(t *testing.T) {
	specs := chunk("_worker-huge", Params{}, 1, hugeCells/2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	results, err := executeCells(context.Background(), specs, NewPool(1, 0))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || string(results[0].Value) != "500000" {
		t.Fatalf("results = %+v", results)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a one-cell chunk allocated %d bytes, want under 1 MB", alloc)
	}
}

// BenchmarkExecuteChunk times a worker executing one 8-cell locality
// group of a 100,000-cell keyed scope: space construction, the chunk
// checks, binding, one shared value and eight cells.
func BenchmarkExecuteChunk(b *testing.B) {
	shards := make([]int, keyedGroup)
	for i := range shards {
		shards[i] = keyedCells/2 + i
	}
	specs := chunk("_worker-keyed", Params{}, 7, shards...)
	session, err := Settings{TraceMajor: true, Snapshots: true}.NewPool(1, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := executeCells(context.Background(), specs, session)
		if err != nil || len(results) != keyedGroup {
			b.Fatalf("results %d, err %v", len(results), err)
		}
	}
}

// TestWorkerAnswersAfterItsSpills: a worker answers a chunk only once
// the spills its cells queued are on disk, so a coordinator (or the
// next worker) that reads the shared directory after the answer finds
// them. The background writer is held for 100 ms first; a worker that
// answered without waiting for it would leave the directory empty.
func TestWorkerAnswersAfterItsSpills(t *testing.T) {
	dir := t.TempDir()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	defer respR.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeWorker(context.Background(), reqR, respW, WorkerOptions{Workers: 1}) }()
	var hello remoteHello
	if _, err := readJSONFrame(respR, &hello); err != nil {
		t.Fatal(err)
	}

	spill.Queue(func() { time.Sleep(100 * time.Millisecond) })
	params := Params{Trials: 3}
	go func() {
		_, err := writeJSONFrame(reqW, remoteWelcome{Proto: protoVersion, HeartbeatMS: 10,
			Settings: Settings{Snapshots: true, SnapDir: dir}})
		if err == nil {
			err = writeMsg(reqW, wireMsg{kind: wireKindWork, seq: 1, cells: chunk("_worker-spill", params, 42, 0, 1, 2)})
		}
		if err != nil {
			t.Error(err)
		}
	}()
	for {
		m, _, err := readWireFrame(respR)
		if err != nil {
			t.Fatal(err)
		}
		if m.kind == wireKindHeartbeat {
			continue
		}
		if m.kind != wireKindResults || m.err != "" || len(m.results) != params.Trials {
			t.Fatalf("frame kind %d, err %q, %d results; want the chunk's %d results", m.kind, m.err, len(m.results), params.Trials)
		}
		break
	}
	if files, err := filepath.Glob(filepath.Join(dir, "*.snap")); err != nil || len(files) != params.Trials {
		t.Errorf("the answered chunk left %d spills (%v), want %d", len(files), err, params.Trials)
	}
	reqW.Close()
	if err := <-serveDone; err != nil {
		t.Error(err)
	}
}
