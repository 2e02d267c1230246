// Package harness is the scenario registry and distributed execution
// engine behind every experiment driver in this repository — the top
// layer of the architecture described in docs/ARCHITECTURE.md
// (predictors → sim/tracestore → harness → cmd and examples).
//
// An experiment is registered once as a named, parameterized Scenario
// built by Define from one function returning two things: a Space that
// declares its dense (model × workload × trial) cell space as data —
// the scope, the cell count, each cell's locality group, the value a
// group's cells share, and the cell function (space.go) — and the
// aggregate over those cells. RunAll maps the space under the
// scenario's (name, params) address, binding and scheduling the cells
// through the pool's Backend and reassembling results in shard order,
// then aggregates them.
//
// # Determinism contract
//
// Every stochastic input of a cell derives from ShardSeed(rootSeed,
// scope, shard) — a pure function of the pool's root seed, the
// scenario-local scope name, and the cell's dense index. Scheduling can
// reorder *execution* but never *results*: each cell's value lands in
// its own slot and aggregation walks slots in index order. A run
// is therefore bit-identical at any worker count and on any backend.
//
// # Backends
//
// Three Backend implementations ship with the package:
//
//   - LocalBackend: the in-process goroutine pool (the default).
//   - RemoteBackend: the worker fleet's one coordinator. Workers
//     (`stbpu-suite -worker -connect host:port`) dial in over TCP and
//     join and leave at will; after a JSON hello/welcome handshake every
//     frame is bin1. The coordinator ships each locality group whole,
//     heartbeats workers, and requeues chunks from dead workers and
//     from workers holding one past BatchTimeout, the one straggler
//     policy: a chunk is in flight on at most one worker at a time.
//   - ExecBackend: the same fleet, with members it spawns
//     (`stbpu-suite -worker`) and admits on their stdin/stdout instead
//     of a listener — the building block for multi-machine runs via ssh
//     or a job runner. Its BatchTimeout kills the overdue worker.
//
// A chunk error marked Permanent (a chunk no worker could execute: mixed
// batches, cells outside the declared space) fails the run instead of
// being retried on another worker.
//
// Cells are addressable across processes as (scenario, params, scope,
// shard, rootSeed), so a worker holding the same binary builds the
// scenario's Space and executes any chunk of it bit-identically,
// without aggregating; see docs/ARCHITECTURE.md "How a cell flows
// through a backend".
//
// # Run settings
//
// A Pool is the one place a run's settings live. Settings.NewPool builds
// it from a Settings — the trace tier, trace-major grouping, the
// snapshot tier and the workload specs, none of which may change
// results — and Pool.Settings reads them back from the pool's toggles,
// stores and registered specs. A fleet backend gets its pool from
// Pool.SetBackend and welcomes every worker with that pool's Settings;
// the worker builds its session pool from the welcome with the same
// constructor. A fleet installed in no pool refuses to start.
//
// # Run journal
//
// The same cell address keys the run journal (journal.go): a Sink
// installed with Pool.SetSink receives every completed cell with its
// wire-encoded result, and a Journal sink streams them to a JSONL file
// (schema: docs/SUITE_JSON.md). Resuming from a journal makes RunAll
// skip already-completed cells and splice their stored values into the
// scenario's cells — a crashed run restarted with `stbpu-suite -resume`
// produces a byte-identical final document without redoing finished
// work.
package harness
