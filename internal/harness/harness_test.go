package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestShardSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for _, scope := range []string{"fig3", "fig4", "covert"} {
		for shard := 0; shard < 1000; shard++ {
			s := ShardSeed(1, scope, shard)
			if s != ShardSeed(1, scope, shard) {
				t.Fatalf("ShardSeed(%q, %d) not stable", scope, shard)
			}
			key := fmt.Sprintf("%s/%d", scope, shard)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %#x", prev, key, s)
			}
			seen[s] = key
		}
	}
	if ShardSeed(1, "fig3", 0) == ShardSeed(2, "fig3", 0) {
		t.Error("root seed does not feed into shard seeds")
	}
}

func TestParamsMerged(t *testing.T) {
	def := Params{Records: 100, Trials: 4, R: 0.05, Sweep: []float64{1, 2}, Workload: "w"}
	got := Params{Records: 7}.Merged(def)
	want := Params{Records: 7, Trials: 4, R: 0.05, Sweep: []float64{1, 2}, Workload: "w"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merged = %+v, want %+v", got, want)
	}
	if full := def.Merged(Params{Records: 9}); !reflect.DeepEqual(full, def) {
		t.Errorf("set fields overwritten: %+v", full)
	}
}

// TestParamsMergedZeroValueEdgeCases pins the zero-means-default
// contract field by field: the knobs whose zero value is a *meaningful*
// setting (R=0, an empty Sweep) cannot be distinguished from "unset",
// so Merged always treats them as unset — scenarios that need a literal
// zero must encode it differently.
func TestParamsMergedZeroValueEdgeCases(t *testing.T) {
	def := Params{R: 0.05, Sweep: []float64{1, 2}, Bits: 512, Budget: 64}

	// R=0 reads as unset and takes the default — there is no way to ask
	// for a literal r of zero through Params.
	if got := (Params{}).Merged(def); got.R != 0.05 {
		t.Errorf("R=0 did not take the default: %+v", got)
	}
	// A non-nil but empty Sweep also reads as unset (len, not nil, is
	// the test), matching how flag parsing produces empty slices.
	if got := (Params{Sweep: []float64{}}).Merged(def); !reflect.DeepEqual(got.Sweep, []float64{1, 2}) {
		t.Errorf("empty Sweep did not take the default: %+v", got.Sweep)
	}
	// A one-element override replaces the default wholesale — sweeps
	// never merge element-wise.
	if got := (Params{Sweep: []float64{9}}).Merged(def); !reflect.DeepEqual(got.Sweep, []float64{9}) {
		t.Errorf("set Sweep was not kept verbatim: %+v", got.Sweep)
	}
	// Negative and tiny values are "set": they survive the merge even
	// when a default exists.
	if got := (Params{R: 1e-9, Budget: -1}).Merged(def); got.R != 1e-9 || got.Budget != -1 {
		t.Errorf("non-zero overrides lost: %+v", got)
	}

	// Merging zero into zero stays zero, and merging a full set into an
	// empty default is the identity.
	if got := (Params{}).Merged(Params{}); !reflect.DeepEqual(got, Params{}) {
		t.Errorf("zero-zero merge invented values: %+v", got)
	}
	full := Params{Records: 1, MaxWorkloads: 2, MaxPairs: 3, Trials: 4, Budget: 5, Bits: 6, R: 7, Sweep: []float64{8}, Workload: "nine"}
	if got := full.Merged(Params{}); !reflect.DeepEqual(got, full) {
		t.Errorf("identity merge mutated params: %+v", got)
	}
	// Merged is layerable: CLI → quick-scale → scenario defaults, as
	// stbpu-suite chains it. The first set value along the chain wins.
	layered := (Params{Records: 1}).Merged(Params{Records: 2, Trials: 3}).Merged(Params{Records: 4, Trials: 5, Bits: 6})
	if want := (Params{Records: 1, Trials: 3, Bits: 6}); !reflect.DeepEqual(layered, want) {
		t.Errorf("layered merge = %+v, want %+v", layered, want)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 100
	run := func(workers int) []uint64 {
		p := NewPool(workers, 42)
		out, err := mapCells(context.Background(), p, "", Params{}, Cells("order", n,
			func(ctx context.Context, shard int, seed uint64) (uint64, error) {
				return seed ^ uint64(shard), nil
			}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	serial := run(1)
	for _, w := range []int{2, 4, 16} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d produced different results than serial", w)
		}
	}
}

func TestMapReturnsLowestShardError(t *testing.T) {
	p := NewPool(4, 1)
	sentinel := errors.New("boom")
	_, err := mapCells(context.Background(), p, "", Params{}, Cells("err", 32,
		func(ctx context.Context, shard int, seed uint64) (int, error) {
			if shard == 3 || shard == 20 {
				return 0, fmt.Errorf("shard %d: %w", shard, sentinel)
			}
			return shard, nil
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
	// Shard 3 always completes (every worker count covers it before 20
	// can finish), so the deterministic lowest-index error is reported.
	if want := "err shard 3:"; err == nil || len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Errorf("err = %q, want prefix %q", err, want)
	}
}

func TestMapRootCauseErrorNotMaskedByCollateralCancellation(t *testing.T) {
	// Shard 0 only aborts because shard 1's real failure cancels the
	// inner context; Map must report shard 1's error, not shard 0's
	// collateral context.Canceled.
	p := NewPool(2, 1)
	sentinel := errors.New("root cause")
	_, err := mapCells(context.Background(), p, "", Params{}, Cells("mask", 2,
		func(ctx context.Context, shard int, seed uint64) (int, error) {
			if shard == 0 {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return 0, sentinel
		}))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the root-cause error", err)
	}
}

func TestMapCancellationStopsWorkersPromptly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers, 1)
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		done := make(chan error, 1)
		go func() {
			_, err := mapCells(ctx, p, "", Params{}, Cells("cancel", 1000,
				func(ctx context.Context, shard int, seed uint64) (int, error) {
					started.Add(1)
					<-ctx.Done() // a cell that only finishes under cancellation
					return 0, ctx.Err()
				}))
			done <- err
		}()
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: Map did not return after cancel", workers)
		}
		if int(started.Load()) > workers {
			t.Errorf("workers=%d: %d cells started after cancel", workers, started.Load())
		}
	}
}

func TestMapObserverStreamsEveryCell(t *testing.T) {
	var cells atomic.Int64
	reports, err := RunAll(context.Background(), NewPool(4, 9), Options{
		Filters: []string{"_observed"},
		Observer: func(c Cell) {
			if c.Scope != "obs" {
				t.Errorf("cell scope = %q", c.Scope)
			}
			cells.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cells.Load() != 50 {
		t.Errorf("observer saw %d cells, want 50", cells.Load())
	}
	if reports[0].Cells != 50 {
		t.Errorf("report counted %d cells, want 50", reports[0].Cells)
	}
}

func TestMapZeroCells(t *testing.T) {
	out, err := mapCells(context.Background(), NewPool(4, 1), "", Params{}, Cells("empty", 0,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return 0, nil }))
	if err != nil || len(out) != 0 {
		t.Fatalf("mapCells(0) = %v, %v", out, err)
	}
}

// The registry tests' scenarios register once per process, so the
// package's tests can repeat in one process (go test -count=2). Their
// names are unique so they compose with the experiments package's init
// registrations in external test binaries.
func init() {
	registerSpace("_test-a", "registry test scenario", Params{Trials: 3},
		func(p Params, _ *Pool) (Space[struct{}, int], error) {
			return Cells("_test-a", p.Trials, func(ctx context.Context, shard int, seed uint64) (int, error) {
				return shard, nil
			}), nil
		})
	Register(Define("_test-b", "a scenario without cells", Params{},
		func(Params, *Pool) (Space[struct{}, struct{}], func([]struct{}) (string, error), error) {
			return Space[struct{}, struct{}]{}, func([]struct{}) (string, error) { return "b", nil }, nil
		}))
	registerSpace("_observed", "observer test scenario", Params{},
		func(Params, *Pool) (Space[struct{}, int], error) {
			return Cells("obs", 50, func(ctx context.Context, shard int, seed uint64) (int, error) {
				return shard, nil
			}), nil
		})
}

func TestRegistryAndRunAll(t *testing.T) {
	if _, ok := Get("_test-a"); !ok {
		t.Fatal("Get missed a registered scenario")
	}
	scens, err := Match([]string{"_test-*"})
	if err != nil || len(scens) != 2 {
		t.Fatalf("Match = %d scenarios, err %v", len(scens), err)
	}
	if _, err := Match([]string{"no-such-scenario"}); err == nil {
		t.Error("Match accepted an unmatched filter")
	}

	pool := NewPool(2, 7)
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_test-a"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	rep := reports[0]
	if rep.Scenario != "_test-a" || rep.Seed != 7 || rep.Workers != 2 {
		t.Errorf("report metadata wrong: %+v", rep)
	}
	if rep.Params.Trials != 3 {
		t.Errorf("defaults not merged: %+v", rep.Params)
	}
	if rep.Cells != 3 {
		t.Errorf("cells = %d, want 3", rep.Cells)
	}
	if rep.ElapsedMS != 0 {
		t.Errorf("timing recorded without Timing option: %d", rep.ElapsedMS)
	}
	got, ok := rep.Result.([]int)
	if !ok || !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("result = %#v", rep.Result)
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	dup := Define("_dup", "", Params{}, func(Params, *Pool) (Space[struct{}, struct{}], func([]struct{}) (any, error), error) {
		return Space[struct{}, struct{}]{}, func([]struct{}) (any, error) { return nil, nil }, nil
	})
	Register(dup)
	Register(dup)
}
