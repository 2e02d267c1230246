// Models, the replay loop, and Result accounting (see doc.go for the
// package overview).

package sim

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/stats"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// Model processes trace records and reports prediction events.
type Model interface {
	// Name identifies the model in reports.
	Name() string
	// Step predicts and resolves one retired branch.
	Step(rec trace.Record) (bpu.Prediction, bpu.Events)
}

// Counters is the replay event accumulator (see bpu.Counters).
type Counters = bpu.Counters

// ColumnModel is the columnar stepping fast path: StepColumns replays
// rows [lo,hi) of a struct-of-arrays trace, folding resolution events
// into acc. Implementations iterate the packed arrays directly —
// branchless flag extraction, no per-record struct copy from the trace
// stream — and must be bit-identical to stepping the equivalent
// records through Step. Models without it replay through Columnar's
// per-record Step adapter, so external models keep working unchanged.
type ColumnModel interface {
	StepColumns(cols *trace.Columns, lo, hi int, acc *Counters)
}

// Columnar returns m's columnar stepping path: m itself when it
// implements ColumnModel, else an adapter that steps each row through
// Step.
func Columnar(m Model) ColumnModel {
	if cm, ok := m.(ColumnModel); ok {
		return cm
	}
	return stepRows{m}
}

// stepRows adapts a Model without the columnar fast path to
// ColumnModel, materializing one record per row.
type stepRows struct{ m Model }

func (s stepRows) StepColumns(cols *trace.Columns, lo, hi int, acc *Counters) {
	for i := lo; i < hi; i++ {
		_, ev := s.m.Step(cols.Record(i))
		acc.Note(ev)
	}
}

// Result aggregates one simulation run.
type Result struct {
	Model    string
	Workload string

	Records     int
	Mispredicts uint64

	Conds      uint64
	DirCorrect uint64

	TargetKnown   uint64
	TargetCorrect uint64

	Evictions uint64
	BTBMisses uint64

	CtxSwitches  uint64
	ModeSwitches uint64

	// Rerandomizations is nonzero only for STBPU models.
	Rerandomizations uint64
	// Flushes is nonzero only for flushing models.
	Flushes uint64
}

// OAE is the overall effective accuracy (§VII-B1): a branch counts as
// correct only if every necessary prediction (direction and target) was
// correct.
func (r Result) OAE() float64 {
	return 1 - stats.Ratio(r.Mispredicts, uint64(r.Records))
}

// DirectionRate is the fraction of conditional branches whose direction
// was predicted correctly.
func (r Result) DirectionRate() float64 { return stats.Ratio(r.DirCorrect, r.Conds) }

// TargetRate is the fraction of taken branches whose target was predicted
// correctly.
func (r Result) TargetRate() float64 { return stats.Ratio(r.TargetCorrect, r.TargetKnown) }

// Run replays a trace through a model.
func Run(m Model, tr *trace.Trace) Result {
	res, _ := RunCtx(context.Background(), m, tr)
	return res
}

// runCheckInterval is how many records a replay steps between context
// checks: coarse enough to cost nothing, fine enough that cancellation
// lands within a fraction of a millisecond. A streamed generation
// (trace.Stream) publishes its rows in chunks of the same size.
const runCheckInterval = 8192

// RunCtx replays a trace through a model, aborting with ctx.Err() when
// the context is canceled mid-replay. It is the AoS entry point of
// RunColumnsCtx: the records are converted to columns once.
func RunCtx(ctx context.Context, m Model, tr *trace.Trace) (Result, error) {
	return RunColumnsCtx(ctx, m, trace.FromTrace(tr))
}

// RunColumns replays a columnar trace through a model.
func RunColumns(m Model, cols *trace.Columns) Result {
	res, _ := RunColumnsCtx(context.Background(), m, cols)
	return res
}

// RunColumnsCtx replays a struct-of-arrays trace through a model — the
// one replay loop every entry point reaches. Replay proceeds in
// runCheckInterval-sized chunks through the model's columnar path
// (Columnar), with one cancellation check between chunks; the check
// before the first chunk is the single up-front one. Before stepping a
// chunk it waits until the chunk's rows are final (trace.Columns.Wait),
// so it replays a trace that is still being generated (a store's
// StreamColumns) chunk by chunk behind the generator; on complete
// columns the wait does nothing. Context/mode switch accounting is
// model-independent and reads only the PID column and the kernel flag
// bit (switches).
func RunColumnsCtx(ctx context.Context, m Model, cols *trace.Columns) (Result, error) {
	// The columns may be a zero-copy view of an mmap'd STBT spill whose
	// mapping is released by a finalizer on cols; the packed slices alone
	// do not keep cols (and thus the mapping) alive, so pin it for the
	// whole replay.
	defer runtime.KeepAlive(cols)
	n := cols.Len()
	res := Result{Model: m.Name(), Workload: cols.Name, Records: n}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cm := Columnar(m)
	var acc Counters
	for start := 0; start < n; start += runCheckInterval {
		if start > 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		end := min(start+runCheckInterval, n)
		if err := cols.Wait(ctx, end); err != nil {
			return Result{}, err
		}
		ctxSw, modeSw := switches(cols, start, end)
		res.CtxSwitches += ctxSw
		res.ModeSwitches += modeSw
		cm.StepColumns(cols, start, end, &acc)
	}
	finish(&res, m, &acc)
	return res, nil
}

// switches counts the context and mode switches entering rows
// [start,end), comparing each row with its predecessor across chunk
// boundaries.
func switches(cols *trace.Columns, start, end int) (ctxSw, modeSw uint64) {
	pids, flags := cols.PIDs, cols.Flags
	for i := max(start, 1); i < end; i++ {
		if pids[i] != pids[i-1] {
			ctxSw++
		}
		if (flags[i]^flags[i-1])&trace.FlagKernel != 0 {
			modeSw++
		}
	}
	return ctxSw, modeSw
}

// finish folds a completed replay's event counters into res and reads
// the model's run-scoped counters.
func finish(res *Result, m Model, acc *Counters) {
	res.Mispredicts = acc.Mispredicts
	res.Conds, res.DirCorrect = acc.Conds, acc.DirCorrect
	res.TargetKnown, res.TargetCorrect = acc.TargetKnown, acc.TargetCorrect
	res.Evictions, res.BTBMisses = acc.Evictions, acc.BTBMisses
	runCounters(res, m)
}

// runCounters reads the counters a model keeps over its whole life:
// the STBPU model's token re-randomizations and a flushing model's
// barriers. Other models keep none.
func runCounters(res *Result, m Model) {
	switch m := m.(type) {
	case *core.Model:
		res.Rerandomizations = m.Rerandomizations()
	case *FlushModel:
		res.Flushes = m.Flushes()
	}
}

// multiState is one model's private replay state inside RunColumnsMulti:
// its columnar stepping path and its event accumulator. Everything in it
// is touched by exactly one goroutine per chunk, so models never share
// mutable state.
type multiState struct {
	cm  ColumnModel
	acc Counters
	// The goroutine stepping this model writes acc on every row; the
	// padding keeps neighbouring states' counters off its cache lines,
	// so concurrent models do not slow each other by false sharing.
	_ [64]byte
}

// RunColumnsMulti replays one columnar trace through N models in a
// single pass — the trace-major twin of RunColumnsCtx. The trace is
// chunked exactly as RunColumnsCtx chunks it (runCheckInterval records,
// one cancellation check and one wait for the chunk's rows between
// chunks), the model-independent
// context/mode-switch scan runs once per chunk instead of once per model,
// and then every model steps the chunk concurrently (one goroutine per
// model, joined before the next chunk) so the hot slice of the packed
// arrays is read N times while it is still in cache and the models'
// predictor work overlaps across cores. Per-model state never crosses a
// goroutine, so results[i] is bit-identical to RunColumnsCtx(ctx,
// models[i], cols) — the determinism contract the trace-major scheduler
// relies on, pinned by TestRunColumnsMultiMatchesSequential. A single
// model delegates to RunColumnsCtx outright.
func RunColumnsMulti(ctx context.Context, models []Model, cols *trace.Columns) ([]Result, error) {
	if len(models) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if len(models) == 1 {
		res, err := RunColumnsCtx(ctx, models[0], cols)
		if err != nil {
			return nil, err
		}
		return []Result{res}, nil
	}
	defer runtime.KeepAlive(cols) // see RunColumnsCtx: mmap'd views
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := cols.Len()
	states := make([]multiState, len(models))
	for i, m := range models {
		states[i].cm = Columnar(m)
	}
	var ctxSwitches, modeSwitches uint64
	// One persistent worker goroutine per model, spawned once and fed
	// chunk ranges over a buffered channel — spawning len(states)
	// goroutines (each with a fresh closure) per chunk dominated the
	// trace-major allocation profile. The channel send happens-before
	// the worker's receive and wg.Done happens-before wg.Wait returns,
	// so each chunk's per-model state is still touched by exactly one
	// goroutine at a time.
	var wg sync.WaitGroup
	work := make([]chan [2]int, len(states))
	for i := range states {
		work[i] = make(chan [2]int, 1)
		go func(st *multiState, ch <-chan [2]int) {
			for rng := range ch {
				st.cm.StepColumns(cols, rng[0], rng[1], &st.acc)
				wg.Done()
			}
		}(&states[i], work[i])
	}
	defer func() {
		for i := range work {
			close(work[i])
		}
	}()
	for start := 0; start < n; start += runCheckInterval {
		if start > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		end := min(start+runCheckInterval, n)
		if err := cols.Wait(ctx, end); err != nil {
			return nil, err
		}
		ctxSw, modeSw := switches(cols, start, end)
		ctxSwitches += ctxSw
		modeSwitches += modeSw
		wg.Add(len(states))
		for i := range work {
			work[i] <- [2]int{start, end}
		}
		wg.Wait()
	}
	results := make([]Result, len(models))
	for i, m := range models {
		results[i] = Result{Model: m.Name(), Workload: cols.Name, Records: n,
			CtxSwitches: ctxSwitches, ModeSwitches: modeSwitches}
		finish(&results[i], m, &states[i].acc)
	}
	return results, nil
}

// ---------------------------------------------------------------------------
// Model implementations.

// ModelKind enumerates the Fig. 3 protection models.
type ModelKind int

const (
	// KindBaseline is the unprotected BPU.
	KindBaseline ModelKind = iota
	// KindUcode1 models IBPB+IBRS+STIBP microcode protection.
	KindUcode1
	// KindUcode2 models IBPB+IBRS microcode protection.
	KindUcode2
	// KindConservative models the full-address, reduced-capacity design.
	KindConservative
	// KindSTBPU is the paper's design.
	KindSTBPU
)

// String names the model as in Fig. 3.
func (k ModelKind) String() string {
	switch k {
	case KindBaseline:
		return "baseline"
	case KindUcode1:
		return "ucode-protection-1"
	case KindUcode2:
		return "ucode-protection-2"
	case KindConservative:
		return "conservative"
	case KindSTBPU:
		return "STBPU"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// Fig3Kinds returns the five models in the paper's comparison order.
func Fig3Kinds() []ModelKind {
	return []ModelKind{KindBaseline, KindUcode1, KindUcode2, KindConservative, KindSTBPU}
}

// Options carries per-run knobs shared by the factory.
type Options struct {
	// SharedTokens enables STBPU selective token sharing (from the
	// workload profile).
	SharedTokens bool
	// Thresholds overrides the STBPU re-randomization budgets.
	Thresholds *token.Thresholds
	// Dir selects the direction predictor for baseline/STBPU models
	// (default SKLCond, matching the Fig. 3 trace simulator).
	Dir core.DirKind
	// Seed fixes stochastic state (token stream).
	Seed uint64
}

// New constructs a protection model.
func New(kind ModelKind, opt Options) Model {
	switch kind {
	case KindBaseline:
		return &UnitModel{ModelName: kind.String(), Unit: core.NewUnprotectedUnit(opt.Dir)}
	case KindUcode1:
		// STIBP partitions the BPU between hardware threads: halved BTB
		// and PHT capacity for each; flush on context and mode switches.
		u := bpu.NewUnit(bpu.UnitConfig{
			Direction: nil, // SKLCond over legacy mapper
			BTB:       bpu.BTBConfig{Sets: bpu.BTBSets / 2, Ways: bpu.BTBWays},
		})
		return &FlushModel{
			UnitModel:     UnitModel{ModelName: kind.String(), Unit: u},
			OnCtxSwitch:   true,
			OnKernelEntry: true,
		}
	case KindUcode2:
		return &FlushModel{
			UnitModel:     UnitModel{ModelName: kind.String(), Unit: core.NewUnprotectedUnit(opt.Dir)},
			OnCtxSwitch:   true,
			OnKernelEntry: true,
		}
	case KindConservative:
		m := &entityMapper{}
		u := bpu.NewUnit(bpu.UnitConfig{
			Mapper: m,
			BTB:    bpu.ConservativeBTBConfig(),
		})
		return &UnitModel{ModelName: kind.String(), Unit: u, entity: m}
	case KindSTBPU:
		return core.NewModel(core.ModelConfig{
			Dir:          opt.Dir,
			SharedTokens: opt.SharedTokens,
			Thresholds:   opt.Thresholds,
			Seed:         opt.Seed,
		})
	default:
		panic(fmt.Sprintf("sim: unknown model kind %d", kind))
	}
}

// UnitModel adapts a bare bpu.Unit to the Model interface.
type UnitModel struct {
	ModelName string
	Unit      *bpu.Unit
	entity    *entityMapper // conservative model only
}

// Name implements Model.
func (m *UnitModel) Name() string { return m.ModelName }

// Step implements Model.
func (m *UnitModel) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	if m.entity != nil {
		m.entity.setEntity(rec.PID, rec.Kernel)
	}
	pred := m.Unit.Predict(rec.PC, rec.Kind)
	return pred, m.Unit.Update(rec, pred)
}

// StepColumns implements ColumnModel: each row resolves through
// bpu.Unit.Resolve, the fused form of Step's predict/update pair,
// straight off the packed arrays. Only the PC/Target/Flags columns are
// loaded per record; the PID side column is read solely for the
// conservative model's entity salt.
func (m *UnitModel) StepColumns(cols *trace.Columns, lo, hi int, acc *Counters) {
	u := m.Unit
	pcs, targets, flags := cols.PCs, cols.Targets, cols.Flags
	for i := lo; i < hi; i++ {
		f := flags[i]
		if m.entity != nil {
			m.entity.setEntity(cols.PIDs[i], f&trace.FlagKernel != 0)
		}
		acc.Note(u.Resolve(pcs[i], targets[i], trace.Kind(f&trace.FlagKindMask), f&trace.FlagTaken != 0))
	}
}

// FlushModel wraps a UnitModel with microcode-style flushing.
type FlushModel struct {
	UnitModel
	OnCtxSwitch   bool
	OnKernelEntry bool

	flushes    uint64
	prevPID    uint32
	prevKernel bool
	started    bool
}

// Step implements Model.
func (m *FlushModel) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	m.maybeFlush(rec.PID, rec.Kernel)
	return m.UnitModel.Step(rec)
}

// maybeFlush applies the microcode barrier policy for one record of
// entity (pid, kernel).
func (m *FlushModel) maybeFlush(pid uint32, kernel bool) {
	if m.started {
		if m.OnCtxSwitch && pid != m.prevPID {
			m.Unit.Flush()
			m.flushes++
		}
		if m.OnKernelEntry && kernel && !m.prevKernel {
			m.Unit.Flush()
			m.flushes++
		}
	}
	m.prevPID, m.prevKernel, m.started = pid, kernel, true
}

// StepColumns implements ColumnModel, shadowing the embedded UnitModel
// fast path. The flush policy reads the entity columns per record, so
// unlike the plain UnitModel path the PID side array stays hot.
func (m *FlushModel) StepColumns(cols *trace.Columns, lo, hi int, acc *Counters) {
	u := m.Unit
	pcs, targets, flags, pids := cols.PCs, cols.Targets, cols.Flags, cols.PIDs
	for i := lo; i < hi; i++ {
		f := flags[i]
		kernel := f&trace.FlagKernel != 0
		m.maybeFlush(pids[i], kernel)
		if m.entity != nil {
			m.entity.setEntity(pids[i], kernel)
		}
		acc.Note(u.Resolve(pcs[i], targets[i], trace.Kind(f&trace.FlagKindMask), f&trace.FlagTaken != 0))
	}
}

// Flushes reports the barriers the flush policy has issued so far.
func (m *FlushModel) Flushes() uint64 { return m.flushes }

// entityMapper is the conservative model's addressing: legacy folds salted
// with the software entity, so distinct entities never collide in the PHT
// (the BTB side is handled by full 48-bit tags). This is the "more
// structural BPU changes" alternative of §VII-B1.
type entityMapper struct {
	bpu.LegacyMapper
	salt uint64
}

func (m *entityMapper) setEntity(pid uint32, kernel bool) {
	if kernel {
		m.salt = 0xffff_0000_0000
		return
	}
	m.salt = uint64(pid) << 20
}

// conservativePHTMask halves the effective PHT: storing enough address
// bits to rule out cross-branch collisions costs the same hardware budget
// the BTB pays, so half the counters go to tags.
const conservativePHTMask = bpu.PHTSize/2 - 1

// PHT1 overrides the legacy index with entity salting and halved capacity.
func (m *entityMapper) PHT1(pc uint64) uint32 {
	return m.LegacyMapper.PHT1(pc^m.salt) & conservativePHTMask
}

// PHT2 overrides the legacy index with entity salting and halved capacity.
func (m *entityMapper) PHT2(pc uint64, ghr uint64) uint32 {
	return m.LegacyMapper.PHT2(pc^m.salt, ghr) & conservativePHTMask
}

// BTBIndex salts the set/tag/offset computation with the entity, so two
// entities at the same virtual address (same binary mapped in two
// processes) index different entries — the ASID-style isolation a
// deliberately conservative design would enforce. The full 48-bit tag then
// removes the remaining compressed-tag false hits.
func (m *entityMapper) BTBIndex(pc uint64) (set, tag, offs uint32) {
	return m.LegacyMapper.BTBIndex(pc ^ m.salt ^ m.salt<<13)
}
