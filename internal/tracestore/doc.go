// Package tracestore is the cross-run trace cache of the simulation
// layer (docs/ARCHITECTURE.md): a concurrency-safe, byte-bounded LRU of
// generated workload traces with singleflight-deduplicated, streamed
// generation and an optional persistent disk tier. Before this package every
// scenario run carried its own per-run cache, so a full stbpu-suite run
// regenerated the same (workload, records) trace once per scenario; one
// shared Store amortizes generation across the whole run while the byte
// bound keeps full-scale sweeps from holding every trace forever.
//
// # Columnar residency
//
// The stored and served representation is trace.Columns — the
// struct-of-arrays view every replay (sim.RunColumnsCtx and
// RunColumnsMulti, and the CPU model's timelines under Figs. 4-6)
// consumes directly. The store never builds an AoS record view.
//
// # Streamed generation
//
// Every generation runs on a goroutine the store owns. The default
// generator writes the rows by index into preallocated columns and
// publishes how many are final every 8,192 rows (trace.Stream). A
// row is final once it is published. StreamColumns hands the columns
// out before any row is final, and the replay loops wait for each
// chunk's rows (trace.Columns.Wait), so a replay runs behind the
// generator. GetColumns returns only when every row is final (and,
// with a disk tier, the trace's spill is on disk). Disk hits and
// custom GenFuncs publish all their rows at once. When the last row
// lands the entry is admitted — charged, put in the LRU and counted as
// a generation — and, with a disk tier, its spill is queued. Wait
// returns once every generation and spill the store started before
// the call has finished; harness.RunAll and every fleet worker call it
// before they report, so Stats and the directory agree. Byte accounting goes
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
// by exec workers sharing the machine. Spills are written behind the
// run, on the background writer the snapshot tier shares
// (spill.Queue), and are on disk once Wait returns. Writes are atomic
// (temp file + rename), bad files fall back to regeneration, and
// because generation is deterministic a decoded spill is bit-identical
// to regenerating, so the tier changes wall-clock only. stbpu-suite
// exposes it as -trace-dir.
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
