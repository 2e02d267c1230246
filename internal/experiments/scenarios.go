package experiments

// Scenario registration: every experiment driver in this package is a
// named harness.Scenario, so CLIs (stbpu-suite, stbpu-bench) and tests
// run them uniformly through the parallel engine. Importing this package
// populates the registry.

import (
	"context"

	"stbpu/internal/harness"
	"stbpu/internal/trace/spec"
)

// defaultScaleParams is the historical stbpu-bench default scale.
func defaultScaleParams() harness.Params {
	return harness.Params{Records: 120_000}
}

// register adds a scenario whose cells space declares and whose Run is
// run, a Run*Ctx that maps that space and aggregates.
func register[S, T, R any](name, description string, defaults harness.Params,
	space func(harness.Params, *harness.Pool) (harness.Space[S, T], error),
	run func(context.Context, harness.Params, *harness.Pool) (R, error)) {
	harness.Register(harness.Scenario{
		Name:        name,
		Description: description,
		Defaults:    defaults,
		Space:       harness.Declare(space),
		Run: func(ctx context.Context, p harness.Params, pool *harness.Pool) (any, error) {
			return run(ctx, p, pool)
		},
	})
}

func init() {
	register("fig3", "Fig. 3 trace-driven OAE comparison of the five protection models",
		defaultScaleParams(), fig3Space, RunFig3Ctx)
	register("fig4", "Fig. 4 single-workload CPU evaluation (prediction reductions, normalized IPC)",
		defaultScaleParams(), fig4Space, RunFig4Ctx)
	register("fig5", "Fig. 5 SMT pair evaluation",
		defaultScaleParams(), fig5Space, RunFig5Ctx)
	register("fig6", "Fig. 6 aggressive re-randomization sweep",
		harness.Params{Records: 120_000, Sweep: DefaultFig6Sweep()}, fig6Space, RunFig6Ctx)
	harness.Register(harness.Scenario{
		Name:        "thresholds",
		Description: "§VI-A.5 attack complexities and re-randomization thresholds",
		Defaults:    harness.Params{R: 0.05},
		Run: func(ctx context.Context, p harness.Params, pool *harness.Pool) (any, error) {
			return RunThresholds(p.R), nil
		},
	})
	harness.Register(harness.Scenario{
		Name:        "gamma",
		Description: "Γ sweep: epoch success probability vs attack-difficulty factor r",
		Defaults:    harness.Params{Sweep: DefaultGammaSweep()},
		Run: func(ctx context.Context, p harness.Params, pool *harness.Pool) (any, error) {
			return RunGamma(p.Sweep), nil
		},
	})
	register("tablei", "Table I attack surface against baseline and STBPU",
		harness.Params{Budget: 20_000}, tableISpace, RunTableICtx)
	register("defense-accuracy", "§VIII related-work head-to-head: OAE retention across the defense lineup",
		defaultScaleParams(), defenseAccuracySpace, RunDefenseAccuracyCtx)
	register("defense-matrix", "§VIII related-work head-to-head: attack-outcome matrix per Table I class",
		harness.Params{Trials: matrixRuns}, defenseMatrixSpace, RunDefenseMatrixCtx)
	register("covert", "PHT covert-channel capacity across the defense lineup",
		harness.Params{Bits: 512, Trials: matrixRuns}, covertSpace, RunCovertComparisonCtx)
	register("ittage", "ITTAGE indirect-predictor extension comparison",
		defaultScaleParams(), ittageSpace, RunITTAGECtx)
	// The built-in spec fixtures register before any scenario can run,
	// so every process of a distributed run resolves the same workload
	// names (user specs are forwarded separately by the CLIs).
	spec.RegisterBuiltin()
	register("workloads", "spec-driven phase-structured workloads: per-phase OAE and re-randomization across the model lineup",
		harness.Params{}, workloadsSpace, RunWorkloadsCtx)
	register("warmup", "warm-state curve: flush penalty vs trace length",
		harness.Params{Workload: "mysql_128con_50s", Sweep: DefaultWarmupSweep()}, warmupSpace, RunWarmupCtx)
}
