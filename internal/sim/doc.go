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
// ColumnModel fast path; RunColumnsMulti is its trace-major twin,
// stepping N models over one pass. Every built-in StepColumns
// (UnitModel, FlushModel, STBPUModel through core.Model) iterates the
// packed arrays with branchless flag extraction and resolves each row
// with bpu.Unit.Resolve: one call that computes the BTB set/tag/offset
// once, keeps the prediction in registers between its predict and
// update halves, and returns a one-byte bpu.Events that
// bpu.Counters.Note folds into the model's counters without a branch.
// The loops do not call Predict and Update because that pair computes
// the BTB index twice and passes the Prediction through the stack:
// Update's arguments need more words than Go has argument registers.
// The AoS entry points (Run, RunCtx) convert their records to columns
// once with trace.FromTrace. Step is the per-record interface, and
// returns the Prediction as well: models that implement only Model
// replay through Columnar's Step adapter, bit-identically (pinned by
// tests), and the cycle-level stage engine in internal/cpu drives Step
// directly. ColumnModel is not folded into Step: forcing Columnar to
// the Step adapter slowed BenchmarkReplayPath/stbpu from 15.3 to
// 22.1 ms (+44%), BenchmarkReplayPath/baseline from 14.4 to 16.8 ms
// (+17%) and BenchmarkReplayMulti/trace-major from 35.4 to 48.2 ms
// (+36%) (3 alternating runs of 20 iterations, 2 vCPUs, measured
// before Resolve). Step stays for the stage engine and the API edges
// that step one record at a time.
// Run-scoped counters surface through the optional
// Finalizer interface. Replay is deterministic for a fixed (trace,
// model, seed), which is what lets the harness distribute cells
// across processes — see docs/ARCHITECTURE.md "The determinism
// contract" and "Trace dataflow".
package sim
