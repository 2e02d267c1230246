package harness_test

// Cross-package determinism tests: the acceptance bar for the harness is
// that real experiment scenarios produce byte-identical JSON at any
// worker count under one root seed. These live in an external test
// package so they can drive the experiments scenarios through the public
// API (experiments imports harness, so the reverse import must go through
// a _test package).

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/tracestore"
)

// quickParams is a reduced QuickScale sized for repeated runs.
func quickParams() harness.Params {
	return harness.Params{Records: 20_000, MaxWorkloads: 4, MaxPairs: 2}
}

// runScenario runs one registered scenario through RunAll on pool with
// params p and returns its typed result.
func runScenario[R any](pool *harness.Pool, name string, p harness.Params) (R, error) {
	reports, err := harness.RunAll(context.Background(), pool, harness.Options{Filters: []string{name}, Params: p})
	if err != nil {
		var zero R
		return zero, err
	}
	return reports[0].Result.(R), nil
}

func TestFig3Fig4ByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const rootSeed = 0xd15ea5e
	p := quickParams()
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}

	marshal := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	type snapshot struct{ fig3, fig4 string }
	run := func(workers int) snapshot {
		pool := harness.NewPool(workers, rootSeed)
		f3, err := runScenario[experiments.Fig3Result](pool, "fig3", p)
		if err != nil {
			t.Fatalf("workers=%d fig3: %v", workers, err)
		}
		f4, err := runScenario[experiments.Fig4Result](pool, "fig4", p)
		if err != nil {
			t.Fatalf("workers=%d fig4: %v", workers, err)
		}
		return snapshot{marshal(f3), marshal(f4)}
	}

	want := run(counts[0])
	for _, w := range counts[1:] {
		got := run(w)
		if got.fig3 != want.fig3 {
			t.Errorf("Fig3Result JSON differs between workers=1 and workers=%d", w)
		}
		if got.fig4 != want.fig4 {
			t.Errorf("Fig4Result JSON differs between workers=1 and workers=%d", w)
		}
	}

	// A different root seed must actually change STBPU's stochastic
	// results — otherwise the plumbing above proves nothing.
	other := harness.NewPool(1, rootSeed+1)
	f3, err := runScenario[experiments.Fig3Result](other, "fig3", quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if marshal(f3) == want.fig3 {
		t.Error("root seed does not influence Fig3 results")
	}
}

// TestTraceStoreSharedAcrossScenarioRuns pins the cross-run property the
// store was extracted for: a second scenario run on the same pool reuses
// every resident trace instead of regenerating (the per-run caches this
// replaced generated once per scenario run).
func TestTraceStoreSharedAcrossScenarioRuns(t *testing.T) {
	pool := harness.NewPool(2, 7)
	p := quickParams()
	if _, err := runScenario[experiments.Fig3Result](pool, "fig3", p); err != nil {
		t.Fatal(err)
	}
	// Under trace-major scheduling the first run consults the store
	// exactly once per workload group, so it generates without hitting.
	first := pool.Traces().Stats()
	if first.Generations == 0 {
		t.Fatalf("first run stats implausible: %+v", first)
	}
	if _, err := runScenario[experiments.Fig3Result](pool, "fig3", p); err != nil {
		t.Fatal(err)
	}
	second := pool.Traces().Stats()
	if second.Generations != first.Generations {
		t.Errorf("second run regenerated traces: generations %d -> %d",
			first.Generations, second.Generations)
	}
	if second.Hits <= first.Hits {
		t.Errorf("second run did not hit the shared store: hits %d -> %d",
			first.Hits, second.Hits)
	}
}

// TestResultsIdenticalUnderTinyTraceStore is the determinism gate for
// eviction: a store too small to hold anything forces constant
// regeneration, and the results must still be byte-identical.
func TestResultsIdenticalUnderTinyTraceStore(t *testing.T) {
	run := func(store *tracestore.Store) string {
		pool := harness.NewPool(3, 0xd15ea5e)
		if store != nil {
			pool.SetTraceStore(store)
		}
		f3, err := runScenario[experiments.Fig3Result](pool, "fig3", quickParams())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(f3)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := run(nil)
	tiny := tracestore.New(1, nil)
	if got := run(tiny); got != want {
		t.Error("results differ between default and always-evicting trace stores")
	}
	if st := tiny.Stats(); st.Evictions == 0 {
		t.Errorf("tiny store never evicted: %+v", st)
	}
}

func TestScenarioRegistryCoversAllExperiments(t *testing.T) {
	want := []string{
		"covert", "defense-accuracy", "defense-matrix", "fig3", "fig4",
		"fig5", "fig6", "gamma", "ittage", "tablei", "thresholds", "warmup",
	}
	for _, name := range want {
		if _, ok := harness.Get(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
}

func TestRunAllScenarioSubset(t *testing.T) {
	pool := harness.NewPool(2, 99)
	reports, err := harness.RunAll(context.Background(), pool, harness.Options{
		Filters: []string{"thresholds", "gamma"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	for _, rep := range reports {
		if _, ok := rep.Result.(harness.Renderer); !ok {
			t.Errorf("scenario %s result %T does not implement Renderer", rep.Scenario, rep.Result)
		}
	}
}

func TestRunAllHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := harness.RunAll(ctx, harness.NewPool(2, 1), harness.Options{
		Filters: []string{"fig3"},
		Params:  quickParams(),
	})
	if err == nil {
		t.Fatal("RunAll ignored a canceled context")
	}
}

// BenchmarkFig3Fig4 measures the QuickScale Fig3+Fig4 run at several
// worker counts; on a multi-core host the 4-worker run should be ≥2×
// faster than serial (the cell spaces are 30 and 24 cells wide).
func BenchmarkFig3Fig4(b *testing.B) {
	p := harness.Params{Records: 40_000, MaxWorkloads: 6}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pool := harness.NewPool(workers, harness.DefaultRootSeed)
				if _, err := runScenario[experiments.Fig3Result](pool, "fig3", p); err != nil {
					b.Fatal(err)
				}
				if _, err := runScenario[experiments.Fig4Result](pool, "fig4", p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
