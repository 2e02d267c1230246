// Package results is the typed results layer of the pipeline: a
// row-oriented metrics table every scenario aggregate can flatten into,
// plus the diff helper and the shared text renderer built on it.
//
// A results.Table holds (scenario, cell, metric, unit, value) rows in a
// deterministic order, so two runs of the same suite flatten to
// comparable tables regardless of how their aggregates are shaped.
// Scenario result types implement Tabler (see
// internal/experiments/tables.go); cmd/stbpu-report diffs the tables of
// two suite documents (or run journals) and gates on per-metric deltas.
//
// Diff matches rows by key and reports deltas with relative changes.
// Grid is the shared fixed-layout text renderer the experiments' Render
// methods shim onto — the label-column padding, separators, and row
// loops live here once instead of twelve times.
package results
