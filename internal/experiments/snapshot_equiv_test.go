// Pins the snapshot tier determinism contract: workloads and warmup
// results are bit-identical with trace-major scheduling on or off and
// the warm-state snapshot tier on or off, at any worker count.

package experiments

import (
	"reflect"
	"testing"

	"stbpu/internal/harness"
)

func TestWorkloadsModesBitIdentical(t *testing.T) {
	p := harness.Params{Records: 8000}
	var base WorkloadsResult
	for i, cfg := range []struct{ tm, snaps bool }{{true, true}, {true, false}, {false, true}, {false, false}} {
		pool := harness.NewPool(4, harness.DefaultRootSeed)
		pool.SetTraceMajor(cfg.tm)
		pool.SetSnapshots(cfg.snaps)
		r, err := runScenario[WorkloadsResult](pool, "workloads", p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = r
			continue
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("config %+v differs from base", cfg)
		}
	}
}

func TestWarmupModesBitIdentical(t *testing.T) {
	p := harness.Params{Workload: "mysql_128con_50s", Sweep: []float64{5000, 12000, 20000}}
	var base WarmupResult
	for i, cfg := range []struct{ tm, snaps bool }{{true, true}, {false, false}} {
		pool := harness.NewPool(4, harness.DefaultRootSeed)
		pool.SetTraceMajor(cfg.tm)
		pool.SetSnapshots(cfg.snaps)
		r, err := runScenario[WarmupResult](pool, "warmup", p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = r
			continue
		}
		if !reflect.DeepEqual(base, r) {
			t.Fatalf("config %+v differs from base: %+v vs %+v", cfg, base, r)
		}
	}
}
