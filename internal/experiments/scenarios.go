package experiments

// Scenario registration: every experiment driver in this package is a
// named harness.Scenario, so stbpu-suite and its fleet workers run them
// uniformly through the parallel engine, and stbpu-report decodes their
// results from a suite document. Importing this package populates the
// registry.

import (
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

// register adds a scenario whose cells and aggregate come from build
// (see harness.Define). Its aggregate must be a Result, so stbpu-report
// can diff and render every scenario's output, and Define records how
// to decode it from a suite document for DecodeResult.
func register[S, T any, R Result](name, description string, defaults harness.Params,
	build func(harness.Params, *harness.Pool) (harness.Space[S, T], func([]T) (R, error), error)) {
	harness.Register(harness.Define(name, description, defaults, build))
}

// analytic is the build of a scenario that maps no cells: its aggregate
// evaluates f on the merged params.
func analytic[R Result](f func(harness.Params) R) func(harness.Params, *harness.Pool) (harness.Space[struct{}, struct{}], func([]struct{}) (R, error), error) {
	return func(p harness.Params, _ *harness.Pool) (harness.Space[struct{}, struct{}], func([]struct{}) (R, error), error) {
		return harness.Space[struct{}, struct{}]{}, func([]struct{}) (R, error) { return f(p), nil }, nil
	}
}

// DecodeResult unmarshals one suite run's raw result JSON into the
// aggregate its scenario registered. It errors on scenarios this
// process doesn't register; callers that must handle foreign documents
// fall back to generic flattening.
func DecodeResult(scenario string, raw json.RawMessage) (Result, error) {
	s, ok := harness.Get(scenario)
	if !ok {
		return nil, fmt.Errorf("experiments: no typed decoder for scenario %q", scenario)
	}
	v, err := s.Decode(raw)
	if err != nil {
		return nil, err
	}
	res, ok := v.(Result)
	if !ok {
		return nil, fmt.Errorf("experiments: scenario %q decodes to %T, not a Result", scenario, v)
	}
	return res, nil
}

func init() {
	register("fig3", "Fig. 3 trace-driven OAE comparison of the five protection models",
		defaultScaleParams(), fig3Scenario)
	register("fig4", "Fig. 4 single-workload CPU evaluation (prediction reductions, normalized IPC)",
		defaultScaleParams(), fig4Scenario)
	register("fig5", "Fig. 5 SMT pair evaluation",
		defaultScaleParams(), fig5Scenario)
	register("fig6", "Fig. 6 aggressive re-randomization sweep",
		harness.Params{Records: 120_000, Sweep: DefaultFig6Sweep()}, fig6Scenario)
	register("thresholds", "§VI-A.5 attack complexities and re-randomization thresholds",
		harness.Params{R: 0.05}, analytic(func(p harness.Params) ThresholdReport { return RunThresholds(p.R) }))
	register("gamma", "Γ sweep: epoch success probability vs attack-difficulty factor r",
		harness.Params{Sweep: DefaultGammaSweep()}, analytic(func(p harness.Params) GammaResult { return RunGamma(p.Sweep) }))
	register("tablei", "Table I attack surface against baseline and STBPU",
		harness.Params{Budget: 20_000}, tableIScenario)
	register("defense-accuracy", "§VIII related-work head-to-head: OAE retention across the defense lineup",
		defaultScaleParams(), defenseAccuracyScenario)
	register("defense-matrix", "§VIII related-work head-to-head: attack-outcome matrix per Table I class",
		harness.Params{Trials: matrixRuns}, defenseMatrixScenario)
	register("covert", "PHT covert-channel capacity across the defense lineup",
		harness.Params{Bits: 512, Trials: matrixRuns}, covertScenario)
	register("ittage", "ITTAGE indirect-predictor extension comparison",
		defaultScaleParams(), ittageScenario)
	// The built-in spec fixtures register before any scenario can run,
	// so every process of a distributed run resolves the same workload
	// names (user specs are forwarded separately by the CLIs).
	spec.RegisterBuiltin()
	register("workloads", "spec-driven phase-structured workloads: per-phase OAE and re-randomization across the model lineup",
		harness.Params{}, workloadsScenario)
	register("warmup", "warm-state curve: flush penalty vs trace length",
		harness.Params{Workload: "mysql_128con_50s", Sweep: DefaultWarmupSweep()}, warmupScenario)
}
