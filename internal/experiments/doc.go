// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from this repository's models. It is the scenario
// layer of docs/ARCHITECTURE.md: each experiment is one function (an
// xxxScenario, registered in scenarios.go through harness.Define) that
// returns its cell space — (model × workload × trial) — as a
// harness.Space and the aggregate over those cells. Per-cell seeds
// derive from the pool's root seed, so results are bit-identical at any
// worker count and on any backend (in-process, subprocess, or mixed).
// Scenarios are backend-agnostic: harness.RunAll maps the space and
// aggregates, and fleet workers execute chunks of the same declaration.
// A scenario function receives params already merged with the
// scenario's defaults, so it never re-derives a default.
//
// Each aggregate is a structured result with a Render method (built on
// results.Grid, the shared table renderer) producing the same
// rows/series the paper reports, and a Table method flattening it into
// a results.Table so cmd/stbpu-report can diff any two runs metric by
// metric (tables.go holds the Tabler implementations; DecodeResult in
// scenarios.go reloads either view from a suite document).
//
// Three conventions keep cells distributable (docs/ARCHITECTURE.md "The
// determinism contract"):
//
//   - every stochastic input derives from the cell seed, never from
//     time or a shared RNG, and aggregation walks shard order;
//   - intermediate per-cell structs (fig6Cell, covertCell, ittageCell)
//     keep exported fields so a cell's value survives the JSON framing
//     of the fleet backends byte-exactly;
//   - a value several cells share (a trace-major joint replay, a CPU
//     timeline) is the Shared value of their locality group, never a
//     per-run cache, so any process computes it from the cells it holds.
package experiments
