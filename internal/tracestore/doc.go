// Package tracestore is the cross-run trace cache of the simulation
// layer (docs/ARCHITECTURE.md): a concurrency-safe, byte-bounded LRU of
// generated workload traces with singleflight-deduplicated generation
// and an optional persistent disk tier. Before this package every
// scenario run carried its own per-run cache, so a full stbpu-suite run
// regenerated the same (workload, records) trace once per scenario; one
// shared Store amortizes generation across the whole run while the byte
// bound keeps full-scale sweeps from holding every trace forever.
//
// # Columnar residency
//
// The stored and served representation is trace.Columns — the
// struct-of-arrays view every replay (sim.RunColumnsCtx, and the CPU
// model's timelines under Figs. 4-6) consumes directly via GetColumns.
// The store never builds an AoS record view. Byte accounting goes
// through the SizeOf hook (default ExactSize): entries are charged the
// capacity-exact footprint of the columns they pin, so the configured
// budget is respected to the byte.
//
// Keys are canonical: a gem5 short name ("mcf", as Figs. 4-6 spell
// SPEC workloads) and its full SPEC name ("505.mcf", as Fig. 3 does)
// generate the same trace, so both resolve through trace.CanonicalName
// to one entry and one spill file.
//
// # Determinism
//
// Trace generation is a pure function of (name, records), so a cached
// trace is bit-identical to a freshly generated one. Eviction can
// therefore only change *when* a trace is rebuilt, never *what*
// replays — the harness determinism contract (bit-identical results at
// any worker count) holds under any byte budget, including zero, with
// or without the disk tier.
//
// # The disk tier
//
// SetDir points the store at a directory where generated traces spill
// as STBT files keyed by (name, records) and are decoded — straight
// into columns, skipping the intermediate []Record — by later runs and
// by exec workers sharing the machine. Writes are atomic (temp file +
// rename), bad files fall back to regeneration, and because generation
// is deterministic a decoded spill is bit-identical to regenerating,
// so the tier changes wall-clock only. The stbpu-suite and stbpu-bench
// front-ends expose it as -trace-dir.
//
// # Cache locality under distributed backends
//
// When the harness runs cells on subprocess workers
// (harness.ExecBackend), each worker process fills its own Store,
// persisted across batches, and the coordinator's store sits idle.
// Without a disk tier a hot trace may then be generated once per
// worker rather than once per run — duplicated wall-clock work, but
// never a result difference, and no trace bytes ever cross the wire.
// A shared -trace-dir collapses that duplication to one generation per
// machine: the first process to generate spills, every other process
// decodes.
package tracestore
