// Package sim is the trace-driven BPU simulator of §VII-B1 — the
// simulation layer of docs/ARCHITECTURE.md, between the predictor
// packages (internal/bpu, internal/tage, internal/perceptron,
// internal/ittage, internal/core) and the experiment harness
// (internal/harness, internal/experiments). It replays branch traces
// through protection models and reports OAE (overall effective
// accuracy), direction/target prediction rates, and the event counts
// the security analysis consumes.
//
// Five models reproduce Fig. 3:
//
//	Baseline      — unprotected Skylake-style BPU
//	µcode-1       — IBPB+IBRS+STIBP: flush on context switches and kernel
//	                entry, structures halved by STIBP partitioning
//	µcode-2       — IBPB+IBRS: flush on context switches and kernel entry
//	Conservative  — full 48-bit addresses end-to-end (halved BTB capacity),
//	                per-entity PHT separation, no flushing
//	STBPU         — secret-token remapping + encryption + re-randomization
//
// # Replay engine
//
// There is one replay loop. RunColumnsCtx replays a trace.Columns
// (struct-of-arrays) view in 8192-record chunks through the
// ColumnModel fast path (StepColumns iterates the packed arrays with
// branchless flag extraction, accumulating events in-model via
// bpu.Counters); RunColumnsMulti is its trace-major twin, stepping N
// models over one pass. The AoS entry points (Run, RunCtx) convert
// their records to columns once with trace.FromTrace. Step is the
// per-record interface: models that implement only Model replay
// through Columnar's Step adapter, bit-identically (pinned by tests),
// and the cycle-level stage engine in internal/cpu drives Step
// directly. ColumnModel is not folded into Step: forcing Columnar to
// the Step adapter slowed BenchmarkReplayPath/stbpu from 15.3 to
// 22.1 ms (+44%), BenchmarkReplayPath/baseline from 14.4 to 16.8 ms
// (+17%) and BenchmarkReplayMulti/trace-major from 35.4 to 48.2 ms
// (+36%) (3 alternating runs of 20 iterations, 2 vCPUs). Step stays for
// the stage engine and the API edges that step one record at a time.
// Run-scoped counters surface through the optional
// Finalizer interface. Replay is deterministic for a fixed (trace,
// model, seed), which is what lets the harness distribute cells
// across processes — see docs/ARCHITECTURE.md "The determinism
// contract" and "Trace dataflow".
package sim
