package experiments

// Scenario registration: every experiment driver in this package is a
// named harness.Scenario, so stbpu-suite and its fleet workers run them
// uniformly through the parallel engine, and stbpu-report decodes their
// results from a suite document. Importing this package populates the
// registry.

import (
	"context"
	"encoding/json"
	"fmt"

	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/trace/spec"
)

// defaultScaleParams is the default scale of the trace-driven
// scenarios: 120,000 records per workload trace.
func defaultScaleParams() harness.Params {
	return harness.Params{Records: 120_000}
}

// Result is what every registered scenario returns: an aggregate that
// flattens into a metrics table (stbpu-report's diff) and renders
// itself as a text table (stbpu-report's view of one document).
type Result interface {
	results.Tabler
	harness.Renderer
}

// decoders holds each registered scenario's result decoder; register
// fills it at init, so it is read-only afterwards.
var decoders = map[string]func(json.RawMessage) (Result, error){}

// register adds a scenario whose cells space declares (nil when it maps
// none) and whose Run is run, a Run*Ctx that maps that space and
// aggregates. It records how to decode run's result from a suite
// document for DecodeResult.
func register[R Result](name, description string, defaults harness.Params,
	space func(harness.Params, *harness.Pool) (harness.Space[any, any], error),
	run func(context.Context, harness.Params, *harness.Pool) (R, error)) {
	decoders[name] = func(raw json.RawMessage) (Result, error) {
		var r R
		err := json.Unmarshal(raw, &r)
		return r, err
	}
	harness.Register(harness.Scenario{
		Name:        name,
		Description: description,
		Defaults:    defaults,
		Space:       space,
		Run: func(ctx context.Context, p harness.Params, pool *harness.Pool) (any, error) {
			return run(ctx, p, pool)
		},
	})
}

// DecodeResult unmarshals one suite run's raw result JSON into the
// aggregate its scenario registered. It errors on scenarios this
// package doesn't register; callers that must handle foreign documents
// fall back to generic flattening.
func DecodeResult(scenario string, raw json.RawMessage) (Result, error) {
	decode, ok := decoders[scenario]
	if !ok {
		return nil, fmt.Errorf("experiments: no typed decoder for scenario %q", scenario)
	}
	return decode(raw)
}

func init() {
	register("fig3", "Fig. 3 trace-driven OAE comparison of the five protection models",
		defaultScaleParams(), harness.Declare(fig3Space), RunFig3Ctx)
	register("fig4", "Fig. 4 single-workload CPU evaluation (prediction reductions, normalized IPC)",
		defaultScaleParams(), harness.Declare(fig4Space), RunFig4Ctx)
	register("fig5", "Fig. 5 SMT pair evaluation",
		defaultScaleParams(), harness.Declare(fig5Space), RunFig5Ctx)
	register("fig6", "Fig. 6 aggressive re-randomization sweep",
		harness.Params{Records: 120_000, Sweep: DefaultFig6Sweep()}, harness.Declare(fig6Space), RunFig6Ctx)
	register("thresholds", "§VI-A.5 attack complexities and re-randomization thresholds",
		harness.Params{R: 0.05}, nil,
		func(_ context.Context, p harness.Params, _ *harness.Pool) (ThresholdReport, error) {
			return RunThresholds(p.R), nil
		})
	register("gamma", "Γ sweep: epoch success probability vs attack-difficulty factor r",
		harness.Params{Sweep: DefaultGammaSweep()}, nil,
		func(_ context.Context, p harness.Params, _ *harness.Pool) (GammaResult, error) {
			return RunGamma(p.Sweep), nil
		})
	register("tablei", "Table I attack surface against baseline and STBPU",
		harness.Params{Budget: 20_000}, harness.Declare(tableISpace), RunTableICtx)
	register("defense-accuracy", "§VIII related-work head-to-head: OAE retention across the defense lineup",
		defaultScaleParams(), harness.Declare(defenseAccuracySpace), RunDefenseAccuracyCtx)
	register("defense-matrix", "§VIII related-work head-to-head: attack-outcome matrix per Table I class",
		harness.Params{Trials: matrixRuns}, harness.Declare(defenseMatrixSpace), RunDefenseMatrixCtx)
	register("covert", "PHT covert-channel capacity across the defense lineup",
		harness.Params{Bits: 512, Trials: matrixRuns}, harness.Declare(covertSpace), RunCovertComparisonCtx)
	register("ittage", "ITTAGE indirect-predictor extension comparison",
		defaultScaleParams(), harness.Declare(ittageSpace), RunITTAGECtx)
	// The built-in spec fixtures register before any scenario can run,
	// so every process of a distributed run resolves the same workload
	// names (user specs are forwarded separately by the CLIs).
	spec.RegisterBuiltin()
	register("workloads", "spec-driven phase-structured workloads: per-phase OAE and re-randomization across the model lineup",
		harness.Params{}, harness.Declare(workloadsSpace), RunWorkloadsCtx)
	register("warmup", "warm-state curve: flush penalty vs trace length",
		harness.Params{Workload: "mysql_128con_50s", Sweep: DefaultWarmupSweep()}, harness.Declare(warmupSpace), RunWarmupCtx)
}
