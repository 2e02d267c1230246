package main

import (
	"fmt"
	"regexp"
)

// metricDef names one reported metric. End-to-end metrics carry a bound:
// the share of the baseline median by which the metric may worsen before
// a change counts as a regression. Floor, when set, is an absolute
// allowance in the metric's unit for metrics so small that a share of
// them is below what the host can resolve.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
	// Exact marks deterministic per-layer values (counts and simulated
	// statistics) that two runs of one commit must reproduce exactly.
	Exact bool
}

// e2eMetrics are host-time costs a user of stbpu-suite sees, measured
// around each subprocess invocation with tracing off. Timings are in
// reference-host seconds (host.go).
var e2eMetrics = []metricDef{
	// Two calibration sets of 10 runs per workload on the reference host
	// showed interquartile spreads of 3-12% for the scaled wall and CPU
	// medians, so their bounds are widened from 10% to 25%. Peak RSS
	// spread 0.1-3.5% (garbage collection timing).
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Set-up is milliseconds of process start, store and directory set-up
	// and, on fleet-exec, worker spawn and handshake, so it gets the
	// widest bound plus a 1 ms floor.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.001},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	// ok_ratio is 1 - failed_ratio: cells that completed with a correct
	// document over cells attempted. Stated as a success share so it is
	// never 0; any failed cell shows as a drop.
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
}

// scenarioNames is the stbpu-suite scenario registry; per-scenario layer
// metrics exist for each (0 on workloads that do not run the scenario).
var scenarioNames = []string{
	"covert", "defense-accuracy", "defense-matrix", "fig3", "fig4", "fig5",
	"fig6", "gamma", "ittage", "tablei", "thresholds", "warmup", "workloads",
}

// layerMetrics lists every per-layer metric in report order.
func layerMetrics() []metricDef {
	const lo, hi = "lower", "higher"
	exact := func(name, unit, better string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
	}
	timed := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	ms := []metricDef{
		exact("tracestore.hits", "count", hi),
		exact("tracestore.misses", "count", lo),
		exact("tracestore.generations", "count", lo),
		exact("tracestore.evictions", "count", lo),
		exact("tracestore.disk_hits", "count", hi),
		exact("tracestore.disk_writes", "count", lo),
		exact("tracestore.disk_errors", "count", lo),
		exact("tracestore.mmap_hits", "count", hi),
		exact("tracestore.hit_ratio", "ratio", hi),
		exact("tracestore.resident_mb", "MB", lo),
		exact("tracestore.mapped_mb", "MB", lo),
		exact("snapstore.puts", "count", lo),
		exact("snapstore.hits", "count", hi),
		exact("snapstore.misses", "count", lo),
		exact("snapstore.disk_hits", "count", hi),
		exact("snapstore.disk_writes", "count", lo),
		exact("snapstore.evictions", "count", lo),
		exact("snapstore.hit_ratio", "ratio", hi),
		exact("snapstore.resident_mb", "MB", lo),
		timed("backend.wall_s", "s", lo),
		exact("backend.retries", "count", lo),
		exact("wire.binary_bytes", "bytes", lo),
		exact("wire.json_bytes", "bytes", lo),
		exact("wire.bytes_per_cell", "bytes", lo),
	}
	for _, s := range scenarioNames {
		ms = append(ms,
			timed("scenario."+s+".wall_s", "s", lo),
			exact("scenario."+s+".cells", "count", hi),
			timed("scenario."+s+".busy_s", "s", lo))
	}
	return append(ms,
		exact("harness.cells", "count", hi),
		timed("harness.cell_busy_s", "s", lo),
		timed("harness.cell_p50_ms", "ms", lo),
		timed("harness.cell_tail_ms", "ms", lo),
		timed("harness.cell_tail_pct", "%", hi),
		timed("harness.slot_idle_s", "s", lo),
		timed("harness.utilization", "ratio", hi),
		timed("harness.unattributed_s", "s", lo),
		exact("harness.failed_cells", "count", lo),
		timed("results.doc_encode_ms", "ms", lo),
		timed("tracing.setup_ms", "ms", lo),
		timed("tracing.attributed_ratio", "ratio", hi),
		timed("tracing.overhead_ratio", "ratio", lo),
		timed("trace.gen_ns_per_record", "ns", lo),
		timed("trace.stbt_write_ns_per_record", "ns", lo),
		timed("trace.stbt_decode_ns_per_record", "ns", lo),
		timed("trace.mmap_map_us", "us", lo),
		timed("sim.replay_ns_per_model_record", "ns", lo),
		timed("cpu.ns_per_record", "ns", lo),
		timed("snapshot.encode_us", "us", lo),
		timed("snapshot.decode_us", "us", lo),
		exact("snapshot.bytes", "bytes", lo),
		exact("model.stbpu_oae_norm", "ratio", hi),
		exact("model.flush_oae_norm_min", "ratio", hi),
		exact("model.stbpu_ipc_norm", "ratio", hi),
		exact("model.oae_err_vs_paper", "ratio", lo),
		exact("model.ipc_shortfall_vs_paper", "ratio", lo),
		timed("predict.wall_s", "s", lo),
		timed("predict.error", "ratio", lo),
		timed("host.probe_ms", "ms", lo),
		timed("host.wall_raw_s", "s", lo),
		timed("host.cpu_raw_s", "s", lo),
		timed("host.setup_raw_s", "s", lo),
	)
}

func unitsOf(defs []metricDef) map[string]string {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	return units
}

// Limits of the benchmark contract every metric catalog must satisfy.
const (
	maxE2EMetrics   = 16
	maxLayerMetrics = 128
	maxNameLen      = 64
	maxUnitLen      = 16
	maxBound        = 0.25
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]+$`)
)

// checkCatalog validates metric names, units, bounds and counts against
// the benchmark contract.
func checkCatalog(e2e, layer []metricDef) error {
	if len(e2e) == 0 || len(e2e) > maxE2EMetrics {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", len(e2e), maxE2EMetrics)
	}
	if len(layer) == 0 || len(layer) > maxLayerMetrics {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", len(layer), maxLayerMetrics)
	}
	seen := map[string]bool{}
	hasSetup := false
	for i, m := range append(append([]metricDef{}, e2e...), layer...) {
		if !nameRE.MatchString(m.Name) || len(m.Name) > maxNameLen {
			return fmt.Errorf("bad metric name %q", m.Name)
		}
		if !unitRE.MatchString(m.Unit) || len(m.Unit) > maxUnitLen {
			return fmt.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("metric %s: better=%q", m.Name, m.Better)
		}
		if i >= len(e2e) {
			continue
		}
		if m.Bound <= 0 || m.Bound > maxBound {
			return fmt.Errorf("metric %s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("no setup_s end-to-end metric")
	}
	return nil
}
