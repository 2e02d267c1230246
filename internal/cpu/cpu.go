// Package cpu is the cycle-level out-of-order CPU model substituting for
// the paper's gem5 DerivO3CPU evaluation (Table IV; see DESIGN.md for the
// substitution argument). It implements an interval-style timing model
// (Genbrugge/Eyerman/Eeckhout): sustained dispatch at core width,
// punctuated by miss events — branch mispredictions (front-end redirect +
// refill), BTB misses (fetch bubbles), and long-latency cache misses
// (partially hidden by the reorder buffer).
//
// What matters for Figs. 4-6 is that the model couples prediction quality
// to IPC the same way gem5's pipeline does: every extra misprediction
// costs a squash window, so the ST-vs-unprotected IPC delta tracks the
// prediction-rate delta.
//
// The interval model runs in two passes over a trace's columns. A
// Timeline (NewTimeline, NewSMTTimeline) walks the caches and charges
// dispatch, instruction-fetch and load-miss cycles; a branch-only replay
// (RunTimelineCtx, RunSMTTimelineCtx) steps the BPU through its columnar
// path and adds MispredictPenalty per mispredict. The split is exact, not
// an approximation: every memory-side input — block length and load
// addresses — comes from recHash, which reads only a row's PC, Target
// and index, and the SMT interleave is a fixed round-robin, so the cache
// walk is the same for every BPU model and the two cycle sums simply add.
// A BTB miss adds nothing of its own: bpu.Unit.Resolve, like Update,
// reports one only for a taken branch with no valid target, which is
// always a target mispredict (TestBTBMissAlwaysMispredicts), so cycles are exactly the
// timeline's plus MispredictPenalty × mispredicts. A solo replay is
// therefore sim.RunColumnsCtx plus that product. Experiments comparing
// several predictors on one trace (or SMT pair) build its Timeline once
// and replay it per model; RunCtx/RunSMTCtx are the one-model shorthand
// for AoS traces, converting them once with trace.FromTrace.
//
// The stage engine in pipeline.go is deliberately not split: there a
// misprediction stalls fetch until the branch resolves, which reorders
// later cache accesses, so its memory side depends on the BPU. It steps
// AoS records one at a time and is the only reader of BTBMissPenalty.
package cpu

import (
	"context"
	"fmt"

	"stbpu/internal/bpu"
	"stbpu/internal/cache"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
	"stbpu/internal/trace"
)

// Config parameterizes the core (defaults per Table IV).
type Config struct {
	// Width is the issue/dispatch width (8).
	Width int
	// ROB is the reorder buffer depth (192).
	ROB int
	// IQ, LQ, SQ are queue sizes (64/32/32); they bound the overlap
	// window for load misses.
	IQ, LQ, SQ int
	// MispredictPenalty is the front-end redirect + refill cost.
	MispredictPenalty int
	// BTBMissPenalty is the fetch bubble for a taken branch without a
	// target. Only the stage engine reads it: in the interval model
	// every BTB miss is already a mispredict and pays MispredictPenalty.
	BTBMissPenalty int

	// InstrPerBranch is the mean non-branch instructions per branch
	// record (workload dependent; ~5 for SPEC int).
	InstrPerBranch int
	// LoadFrac is the fraction of non-branch instructions that access
	// memory.
	LoadFrac float64
	// DataFootprint is the synthesized data working-set size in bytes.
	DataFootprint uint64
}

// TableIVConfig returns the paper's gem5 core configuration.
func TableIVConfig() Config {
	return Config{
		Width:             8,
		ROB:               192,
		IQ:                64,
		LQ:                32,
		SQ:                32,
		MispredictPenalty: 16,
		BTBMissPenalty:    8,
		InstrPerBranch:    5,
		LoadFrac:          0.3,
		DataFootprint:     8 << 20,
	}
}

// Result is one core-simulation outcome.
type Result struct {
	Workload     string
	Model        string
	Instructions uint64
	Cycles       uint64
	Branch       sim.Result
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	return stats.Ratio(r.Instructions, r.Cycles)
}

// Core is a single simulated OoO core: a configuration and a BPU model.
// Its caches live in the Timeline a run replays against.
type Core struct {
	cfg Config
	bpu sim.Model
}

// New builds a core around a BPU model.
func New(cfg Config, bpuModel sim.Model) *Core {
	return &Core{cfg: cfg, bpu: bpuModel}
}

// loadAddr synthesizes a data address for load l of a block with realistic
// locality: ~90% of accesses fall in a hot 64KB region, ~9% in a warm 1MB
// region, and the rest sweep the full footprint — giving the L1/L2/LLC hit
// rates real SPEC workloads exhibit. Both timing engines share it.
func loadAddr(footprint, h uint64, l int) uint64 {
	x := h>>8 ^ uint64(l)*0x2545f4914f6cdd1d
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	region := uint64(64 << 10)
	switch sel := (x >> 56) % 100; {
	case sel >= 99:
		region = footprint
	case sel >= 90:
		region = 1 << 20
	}
	if region > footprint {
		region = footprint
	}
	return (x % region) &^ 0x3f
}

// recHash derives deterministic per-record variation (instruction count,
// load addresses) from record i's PC and target, so protected and
// unprotected models see the *identical* instruction stream.
func recHash(pc, target uint64, i int) uint64 {
	h := pc ^ uint64(i)*0x9e3779b97f4a7c15 ^ target<<1
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// runCheckInterval is how many records (SMT: rounds) the timing loops
// execute between context checks (mirrors sim.RunColumnsCtx).
const runCheckInterval = 8192

// Timeline is the memory side of one interval-model run: the cycles that
// cannot depend on the BPU, computed once per (config, traces) and shared
// read-only by any number of branch replays, concurrently if need be.
type Timeline struct {
	cfg     Config
	smt     bool
	names   [2]string
	records [2]int
	// thread1 is an SMT timeline's replay view of its second trace, built
	// once and shared by every replay of the pair: PIDs and Programs are
	// offset into a disjoint range so the two threads never collide in
	// the token table.
	thread1 *trace.Columns

	// Instructions is the dynamic instruction count per thread (a solo
	// timeline uses only thread 0).
	Instructions [2]uint64
	// DispatchCycles issue each block at core width, ICacheCycles are
	// instruction-fetch miss stalls, and DCacheCycles are load-miss stalls
	// beyond the reorder-buffer overlap window. An SMT timeline charges
	// them to the shared clock.
	DispatchCycles, ICacheCycles, DCacheCycles uint64
}

// Cycles returns every cycle the run spends outside branch penalties.
func (t *Timeline) Cycles() uint64 {
	return t.DispatchCycles + t.ICacheCycles + t.DCacheCycles
}

// charge walks row i of a trace through mem and returns the
// instructions it retires: its block plus the branch itself.
func (t *Timeline) charge(mem *cache.Hierarchy, cols *trace.Columns, i int, robOverlap uint64) uint64 {
	pc := cols.PCs[i]
	h := recHash(pc, cols.Targets[i], i)
	block := 1 + int(h%uint64(2*t.cfg.InstrPerBranch)) // mean ≈ IPB

	// Dispatch the block at core width.
	t.DispatchCycles += uint64((block + t.cfg.Width - 1) / t.cfg.Width)

	// Instruction fetch misses stall the front end.
	if il := mem.AccessInstr(pc); il > 4 {
		t.ICacheCycles += uint64(il) / 2 // partially pipelined fetch
	}

	// Loads: long-latency misses are hidden up to the ROB fill time;
	// consecutive misses in the same block overlap (MLP 2).
	nLoads := int(float64(block) * t.cfg.LoadFrac)
	for l := 0; l < nLoads; l++ {
		if lat := uint64(mem.AccessData(loadAddr(t.cfg.DataFootprint, h, l))); lat > robOverlap {
			t.DCacheCycles += (lat - robOverlap) / 2
		}
	}
	return uint64(block) + 1
}

// NewTimeline walks cols through a fresh Table IV cache hierarchy under
// cfg. It aborts with ctx.Err() when the context is canceled mid-trace.
func NewTimeline(ctx context.Context, cfg Config, cols *trace.Columns) (*Timeline, error) {
	t := &Timeline{cfg: cfg, names: [2]string{cols.Name}, records: [2]int{cols.Len()}}
	mem := cache.TableIVHierarchy()
	robOverlap := uint64(cfg.ROB / cfg.Width)
	for i := 0; i < cols.Len(); i++ {
		if i%runCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t.Instructions[0] += t.charge(mem, cols, i, robOverlap)
	}
	return t, nil
}

// NewSMTTimeline is NewTimeline for two threads co-running on one core:
// their records interleave in the SMT order (smtOrder) through one shared
// hierarchy, and load misses hide only behind each thread's half of the
// reorder buffer. It also builds the pair's thread-1 replay view.
func NewSMTTimeline(ctx context.Context, cfg Config, a, b *trace.Columns) (*Timeline, error) {
	t := &Timeline{cfg: cfg, smt: true,
		names: [2]string{a.Name, b.Name}, records: [2]int{a.Len(), b.Len()}}
	mem := cache.TableIVHierarchy()
	robOverlap := uint64(cfg.ROB / cfg.Width / 2) // window shared by threads
	cols := [2]*trace.Columns{a, b}
	if err := smtOrder(ctx, t.records, func(th, i int) {
		t.Instructions[th] += t.charge(mem, cols[th], i, robOverlap)
	}); err != nil {
		return nil, err
	}
	t.thread1 = b.OffsetEntities(1<<16, 1<<12)
	return t, nil
}

// smtOrder is the fixed SMT interleave both passes share: records
// alternate round-robin between the threads (ICOUNT-style fairness), a
// drained thread is skipped, and ctx is checked every runCheckInterval
// rounds.
func smtOrder(ctx context.Context, n [2]int, fn func(thread, i int)) error {
	for i := 0; i < max(n[0], n[1]); i++ {
		if i%runCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for th := 0; th < 2; th++ {
			if i < n[th] {
				fn(th, i)
			}
		}
	}
	return nil
}

// check rejects replaying t against a core configuration or traces it
// was not built from.
func (t *Timeline) check(cfg Config, smt bool, trs ...*trace.Columns) error {
	if t.cfg != cfg {
		return fmt.Errorf("cpu: timeline built for config %+v, core has %+v", t.cfg, cfg)
	}
	if t.smt != smt {
		return fmt.Errorf("cpu: timeline smt=%v replayed with smt=%v", t.smt, smt)
	}
	for i, tr := range trs {
		if tr.Name != t.names[i] || tr.Len() != t.records[i] {
			return fmt.Errorf("cpu: timeline thread %d built from %s (%d records), replayed with %s (%d records)",
				i, t.names[i], t.records[i], tr.Name, tr.Len())
		}
	}
	return nil
}

// Run executes a trace through the core and returns timing + branch
// statistics.
func (c *Core) Run(tr *trace.Trace) Result {
	res, _ := c.RunCtx(context.Background(), tr)
	return res
}

// RunCtx is Run with cancellation: it aborts with ctx.Err() when the
// context is canceled mid-trace.
func (c *Core) RunCtx(ctx context.Context, tr *trace.Trace) (Result, error) {
	cols := trace.FromTrace(tr)
	tl, err := NewTimeline(ctx, c.cfg, cols)
	if err != nil {
		return Result{}, err
	}
	return c.RunTimelineCtx(ctx, tl, cols)
}

// RunTimelineCtx replays cols through the core's BPU (sim.RunColumnsCtx)
// and adds MispredictPenalty per mispredict to tl, which must come from
// NewTimeline with the core's configuration and the same trace. It
// aborts with ctx.Err() when the context is canceled mid-trace.
func (c *Core) RunTimelineCtx(ctx context.Context, tl *Timeline, cols *trace.Columns) (Result, error) {
	if err := tl.check(c.cfg, false, cols); err != nil {
		return Result{}, err
	}
	br, err := sim.RunColumnsCtx(ctx, c.bpu, cols)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Workload:     cols.Name,
		Model:        br.Model,
		Instructions: tl.Instructions[0],
		Cycles:       tl.Cycles() + uint64(c.cfg.MispredictPenalty)*br.Mispredicts,
		Branch:       br,
	}, nil
}

// SMTResult is a two-thread co-run outcome.
type SMTResult struct {
	Workloads [2]string
	Model     string
	// PerThread are the per-thread timing results.
	PerThread [2]Result
	// Cycles is the shared-core total.
	Cycles uint64
}

// HarmonicMeanIPC is the throughput metric of Fig. 5 (Michaud): the
// harmonic mean of per-thread IPCs.
func (r SMTResult) HarmonicMeanIPC() float64 {
	hm, err := stats.HarmonicMean([]float64{r.PerThread[0].IPC(), r.PerThread[1].IPC()})
	if err != nil {
		return 0
	}
	return hm
}

// RunSMT co-runs two traces on one core in SMT mode: records interleave
// round-robin (ICOUNT-style fairness), the BPU and caches are shared, and
// both threads accumulate cycles on the shared clock.
func (c *Core) RunSMT(a, b *trace.Trace) SMTResult {
	res, _ := c.RunSMTCtx(context.Background(), a, b)
	return res
}

// RunSMTCtx is RunSMT with cancellation: it aborts with ctx.Err() when the
// context is canceled mid-co-run.
func (c *Core) RunSMTCtx(ctx context.Context, a, b *trace.Trace) (SMTResult, error) {
	ca, cb := trace.FromTrace(a), trace.FromTrace(b)
	tl, err := NewSMTTimeline(ctx, c.cfg, ca, cb)
	if err != nil {
		return SMTResult{}, err
	}
	return c.RunSMTTimelineCtx(ctx, tl, ca, cb)
}

// RunSMTTimelineCtx is RunTimelineCtx for an SMT co-run: tl must come
// from NewSMTTimeline with the core's configuration and the same pair.
// The threads step in the timeline's round-robin order, one row at a
// time through the BPU's columnar path into one set of counters per
// thread; thread 1 reads the timeline's offset view of b. It aborts
// with ctx.Err() when the context is canceled mid-co-run.
func (c *Core) RunSMTTimelineCtx(ctx context.Context, tl *Timeline, a, b *trace.Columns) (SMTResult, error) {
	if err := tl.check(c.cfg, true, a, b); err != nil {
		return SMTResult{}, err
	}
	step := sim.Columnar(c.bpu)
	cols := [2]*trace.Columns{a, tl.thread1}
	var acc [2]bpu.Counters
	if err := smtOrder(ctx, tl.records, func(th, i int) {
		step.StepColumns(cols[th], i, i+1, &acc[th])
	}); err != nil {
		return SMTResult{}, err
	}
	res := SMTResult{Workloads: [2]string{a.Name, b.Name}, Model: c.bpu.Name()}
	res.Cycles = tl.Cycles() + uint64(c.cfg.MispredictPenalty)*(acc[0].Mispredicts+acc[1].Mispredicts)
	for th, n := range tl.records {
		res.PerThread[th] = Result{
			Workload:     res.Workloads[th],
			Model:        res.Model,
			Instructions: tl.Instructions[th],
			Cycles:       res.Cycles,
			Branch:       branchResult(acc[th]),
		}
		res.PerThread[th].Branch.Records = n
	}
	return res, nil
}

// branchResult carries the event counts of acc into a sim.Result.
func branchResult(acc bpu.Counters) sim.Result {
	return sim.Result{
		Mispredicts:   acc.Mispredicts,
		Conds:         acc.Conds,
		DirCorrect:    acc.DirCorrect,
		TargetKnown:   acc.TargetKnown,
		TargetCorrect: acc.TargetCorrect,
		Evictions:     acc.Evictions,
		BTBMisses:     acc.BTBMisses,
	}
}
