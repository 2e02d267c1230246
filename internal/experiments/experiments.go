// Figures 3–6 and the threshold/Γ analyses (see doc.go for the package
// overview; sibling files hold Table I, the defense matrix, the covert
// channel, ITTAGE, and warmup).

package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"stbpu/internal/analysis"
	"stbpu/internal/core"
	"stbpu/internal/cpu"
	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
	"stbpu/internal/token"
	"stbpu/internal/trace"
	"stbpu/internal/tracestore"
)

// Scale bounds experiment size so the same harness serves quick tests,
// benchmarks, and full runs.
type Scale struct {
	// Records is the per-workload trace length.
	Records int
	// MaxWorkloads caps the workload list (0 = all).
	MaxWorkloads int
	// MaxPairs caps the SMT pair list (0 = all).
	MaxPairs int
}

// QuickScale is sized for unit tests and benchmarks.
func QuickScale() Scale { return Scale{Records: 40_000, MaxWorkloads: 6, MaxPairs: 4} }

// FullScale reproduces the complete figures.
func FullScale() Scale { return Scale{Records: 250_000} }

// Params lifts a Scale into harness parameters.
func (s Scale) Params() harness.Params {
	return harness.Params{Records: s.Records, MaxWorkloads: s.MaxWorkloads, MaxPairs: s.MaxPairs}
}

// scaleOf projects harness parameters back onto a Scale.
func scaleOf(p harness.Params) Scale {
	return Scale{Records: p.Records, MaxWorkloads: p.MaxWorkloads, MaxPairs: p.MaxPairs}
}

func capList[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[:n]
	}
	return xs
}

// replayLineup replays a locality group's lineup over the (workload,
// records) trace in one trace-major pass: model builds each shard's
// model from its seed and the trace's SharedTokens policy, and the
// results come back in shard order. The trace streams: the models are
// built, and the replay steps each chunk, while the store's goroutine
// is still generating later rows.
func replayLineup(ctx context.Context, store *tracestore.Store, workload string, records int,
	shards []int, seeds []uint64, model func(shard int, seed uint64, sharedTokens bool) sim.Model) ([]sim.Result, error) {
	cols, prof, err := store.StreamColumns(workload, records)
	if err != nil {
		return nil, err
	}
	models := make([]sim.Model, len(shards))
	for i, shard := range shards {
		models[i] = model(shard, seeds[i], prof.SharedTokens)
	}
	return sim.RunColumnsMulti(ctx, models, cols)
}

// oaes maps lineup results to their OAEs.
func oaes(rs []sim.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.OAE()
	}
	return out
}

// Workload traces come from the pool's shared tracestore.Store: one
// (workload, records) trace is generated once and shared read-only across
// every cell of every scenario in the run, with deduplicated generation
// and a byte-bounded LRU, so no scenario carries a trace cache of its
// own. The replay scenarios (replayLineup, warmup, workloads) stream the
// columnar view (StreamColumns) into sim.RunColumnsMulti, which steps
// each chunk once its rows are final; the CPU figures (fig4/fig5/fig6)
// build a cpu.Timeline over every row, so they fetch complete columns
// (GetColumns).

// ---------------------------------------------------------------------------
// Fig. 3 — trace-driven OAE comparison of the five protection models.

// Fig3Row is one workload's normalized OAE per model.
type Fig3Row struct {
	Workload   string
	OAE        [5]float64 // indexed by sim.Fig3Kinds order
	Normalized [5]float64 // OAE / baseline OAE
}

// Fig3Result is the whole figure.
type Fig3Result struct {
	Rows []Fig3Row
	// AvgNormalized per model (the figure's dashed averages; paper:
	// µcode-1 0.77, µcode-2 0.82, conservative 0.88, STBPU 0.99).
	AvgNormalized [5]float64
}

// fig3Scenario declares Fig. 3's (workload × model) cells and the
// figure over them. Trace-major: all of a workload's model cells replay
// in one pass over its shared columns.
func fig3Scenario(p harness.Params, pool *harness.Pool) (harness.Space[map[int]float64, float64], func([]float64) (Fig3Result, error), error) {
	s := scaleOf(p)
	names := capList(trace.Fig3Workloads(), s.MaxWorkloads)
	kinds := sim.Fig3Kinds()
	cache := pool.Traces()
	k := len(kinds)
	sp := harness.Joint("fig3", len(names)*k,
		func(shard int) string { return harness.Locality(names[shard/k], s.Records) },
		func(ctx context.Context, shards []int, seeds []uint64) ([]float64, error) {
			rs, err := replayLineup(ctx, cache, names[shards[0]/k], s.Records, shards, seeds,
				func(shard int, seed uint64, sharedTokens bool) sim.Model {
					return sim.New(kinds[shard%k], sim.Options{SharedTokens: sharedTokens, Seed: seed})
				})
			if err != nil {
				return nil, err
			}
			return oaes(rs), nil
		})
	return sp, func(oaes []float64) (Fig3Result, error) {
		res := Fig3Result{Rows: make([]Fig3Row, len(names))}
		for w := range names {
			row := Fig3Row{Workload: names[w]}
			copy(row.OAE[:], oaes[w*k:(w+1)*k])
			for ki := range row.Normalized {
				row.Normalized[ki] = row.OAE[ki] / row.OAE[0]
			}
			res.Rows[w] = row
		}
		for ki := 0; ki < k; ki++ {
			vals := make([]float64, len(res.Rows))
			for i, r := range res.Rows {
				vals[i] = r.Normalized[ki]
			}
			res.AvgNormalized[ki] = stats.Mean(vals)
		}
		return res, nil
	}, nil
}

// Render writes the figure as a text table (shared renderer: results.Grid).
func (r Fig3Result) Render(w io.Writer) {
	kinds := sim.Fig3Kinds()
	g := results.Grid{LabelWidth: 24}
	g.Row(w, "workload", results.Cells("%18s", kinds...)...)
	for _, row := range r.Rows {
		cells := make([]string, len(kinds))
		for i := range kinds {
			cells[i] = fmt.Sprintf("%8.3f(%7.3f)", row.OAE[i], row.Normalized[i])
		}
		g.Row(w, row.Workload, cells...)
	}
	g.Row(w, "AVG (normalized)", results.Cells("%18.3f", r.AvgNormalized[:]...)...)
}

// ---------------------------------------------------------------------------
// Fig. 4 — single-workload CPU evaluation: prediction-rate reductions and
// normalized IPC for the four ST models vs their unprotected twins.

// Fig4Cell is one (workload, predictor) comparison.
type Fig4Cell struct {
	DirReduction float64 // unprotected − ST direction rate
	TgtReduction float64 // unprotected − ST target rate
	NormIPC      float64 // ST IPC / unprotected IPC
}

// Fig4Dirs is the predictor order of the figure.
func Fig4Dirs() []core.DirKind {
	return []core.DirKind{core.DirPerceptron, core.DirSKLCond, core.DirTAGE64, core.DirTAGE8}
}

// Fig4Row is one workload's results across the four predictor pairs.
type Fig4Row struct {
	Workload string
	Cells    [4]Fig4Cell
}

// Fig4Result is the whole figure.
type Fig4Result struct {
	Rows []Fig4Row
	// Avg per predictor (paper averages: dir reductions 0.001/0.01/
	// 0.009/0.011; tgt 0.012/−0.001/0.018/0.017; IPC 1.066… our shape
	// target is |dir|≤0.013, |tgt|≤0.02, IPC ≥ 0.96).
	Avg [4]Fig4Cell
}

// runPair replays one workload's memory timeline through the unprotected
// and ST variants of a predictor on the CPU model.
func runPair(ctx context.Context, tl *cpu.Timeline, tr *trace.Columns, dir core.DirKind, seed uint64) (Fig4Cell, error) {
	cfg := cpu.ConfigFor(tr.Name)
	base, err := cpu.New(cfg, &sim.UnitModel{
		ModelName: dir.String(), Unit: core.NewUnprotectedUnit(dir)}).RunTimelineCtx(ctx, tl, tr)
	if err != nil {
		return Fig4Cell{}, err
	}
	st, err := cpu.New(cfg, core.NewModel(core.ModelConfig{Dir: dir, Seed: seed})).RunTimelineCtx(ctx, tl, tr)
	if err != nil {
		return Fig4Cell{}, err
	}
	return Fig4Cell{
		DirReduction: base.Branch.DirectionRate() - st.Branch.DirectionRate(),
		TgtReduction: base.Branch.TargetRate() - st.Branch.TargetRate(),
		NormIPC:      st.IPC() / base.IPC(),
	}, nil
}

// cpuShare is what the cells of one Fig. 4 workload or one Fig. 5/6 SMT
// pair share: the traces (b only for a pair), their memory timeline,
// and for Fig. 6 the pair's unprotected TAGE64 harmonic-mean IPC.
type cpuShare struct {
	a, b    *trace.Columns
	tl      *cpu.Timeline
	baseIPC float64
}

// fig4Scenario declares Fig. 4's (workload × predictor) cells and the
// figure over them. A workload's memory timeline is shared by its
// predictor cells, which each replay it through one unprotected/ST
// predictor pair.
func fig4Scenario(p harness.Params, pool *harness.Pool) (harness.Space[cpuShare, Fig4Cell], func([]Fig4Cell) (Fig4Result, error), error) {
	s := scaleOf(p)
	names := capList(trace.SPEC18(), s.MaxWorkloads)
	dirs := Fig4Dirs()
	cache := pool.Traces()
	d := len(dirs)
	sp := harness.Space[cpuShare, Fig4Cell]{
		Scope: "fig4", N: len(names) * d,
		Group: func(shard int) string { return harness.Locality(names[shard/d], s.Records) },
		Shared: func(ctx context.Context, shards []int, _ []uint64) (cpuShare, error) {
			tr, _, err := cache.GetColumns(names[shards[0]/d], s.Records)
			if err != nil {
				return cpuShare{}, err
			}
			tl, err := cpu.NewTimeline(ctx, cpu.ConfigFor(tr.Name), tr)
			return cpuShare{a: tr, tl: tl}, err
		},
		Cell: func(ctx context.Context, sh cpuShare, shard int, seed uint64) (Fig4Cell, error) {
			return runPair(ctx, sh.tl, sh.a, dirs[shard%d], seed)
		},
	}
	return sp, func(cells []Fig4Cell) (Fig4Result, error) {
		res := Fig4Result{Rows: make([]Fig4Row, len(names))}
		for w := range names {
			row := Fig4Row{Workload: names[w]}
			copy(row.Cells[:], cells[w*d:(w+1)*d])
			res.Rows[w] = row
		}
		res.Avg = avgFig4Cells(res.Rows, func(r Fig4Row) [4]Fig4Cell { return r.Cells })
		return res, nil
	}, nil
}

// avgFig4Cells column-averages the four predictor cells over rows.
func avgFig4Cells[T any](rows []T, cells func(T) [4]Fig4Cell) [4]Fig4Cell {
	var avg [4]Fig4Cell
	for d := 0; d < 4; d++ {
		var dirs, tgts, ipcs []float64
		for _, r := range rows {
			c := cells(r)[d]
			dirs = append(dirs, c.DirReduction)
			tgts = append(tgts, c.TgtReduction)
			ipcs = append(ipcs, c.NormIPC)
		}
		avg[d] = Fig4Cell{
			DirReduction: stats.Mean(dirs),
			TgtReduction: stats.Mean(tgts),
			NormIPC:      stats.Mean(ipcs),
		}
	}
	return avg
}

// fig4TripleCells formats the per-predictor (dir, tgt, ipc) triple the
// Fig. 4 and Fig. 5 tables share.
func fig4TripleCells(cs [4]Fig4Cell) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = fmt.Sprintf("%+0.4f %+0.4f %0.3f", c.DirReduction, c.TgtReduction, c.NormIPC)
	}
	return out
}

// Render writes the figure as a text table (shared renderer: results.Grid).
func (r Fig4Result) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 12, Sep: " | "}
	g.Row(w, "workload", results.Cells("%s dir/tgt/ipc", Fig4Dirs()...)...)
	for _, row := range r.Rows {
		g.Row(w, row.Workload, fig4TripleCells(row.Cells)...)
	}
	g.Row(w, "AVG", fig4TripleCells(r.Avg)...)
}

// ---------------------------------------------------------------------------
// Fig. 5 — SMT pair evaluation.

// Fig5Row is one workload pair.
type Fig5Row struct {
	Pair  [2]string
	Cells [4]Fig4Cell // same cell semantics, harmonic-mean IPC
}

// Fig5Result is the whole figure.
type Fig5Result struct {
	Rows []Fig5Row
	Avg  [4]Fig4Cell
}

// runSMTPair compares unprotected vs ST for one predictor on a pair,
// replaying the pair's SMT memory timeline.
func runSMTPair(ctx context.Context, tl *cpu.Timeline, a, b *trace.Columns, dir core.DirKind, seed uint64) (Fig4Cell, error) {
	cfg := cpu.ConfigFor(a.Name) // pair co-runs share one core configuration
	base, err := cpu.New(cfg, &sim.UnitModel{
		ModelName: dir.String(), Unit: core.NewUnprotectedUnit(dir)}).RunSMTTimelineCtx(ctx, tl, a, b)
	if err != nil {
		return Fig4Cell{}, err
	}
	st, err := cpu.New(cfg, core.NewModel(core.ModelConfig{Dir: dir, Seed: seed})).RunSMTTimelineCtx(ctx, tl, a, b)
	if err != nil {
		return Fig4Cell{}, err
	}
	dirBase := (base.PerThread[0].Branch.DirectionRate() + base.PerThread[1].Branch.DirectionRate()) / 2
	dirST := (st.PerThread[0].Branch.DirectionRate() + st.PerThread[1].Branch.DirectionRate()) / 2
	tgtBase := (base.PerThread[0].Branch.TargetRate() + base.PerThread[1].Branch.TargetRate()) / 2
	tgtST := (st.PerThread[0].Branch.TargetRate() + st.PerThread[1].Branch.TargetRate()) / 2
	return Fig4Cell{
		DirReduction: dirBase - dirST,
		TgtReduction: tgtBase - tgtST,
		NormIPC:      st.HarmonicMeanIPC() / base.HarmonicMeanIPC(),
	}, nil
}

// fig5Scenario declares Fig. 5's (pair × predictor) cells and the
// figure over them. A pair's SMT memory timeline is shared by its
// predictor cells.
func fig5Scenario(p harness.Params, pool *harness.Pool) (harness.Space[cpuShare, Fig4Cell], func([]Fig4Cell) (Fig5Result, error), error) {
	s := scaleOf(p)
	pairs := capList(trace.SMTPairs(), s.MaxPairs)
	dirs := Fig4Dirs()
	cache := pool.Traces()
	d := len(dirs)
	sp := harness.Space[cpuShare, Fig4Cell]{
		Scope: "fig5", N: len(pairs) * d,
		Group: func(shard int) string {
			return harness.PairLocality(pairs[shard/d][0], pairs[shard/d][1], s.Records)
		},
		Shared: func(ctx context.Context, shards []int, _ []uint64) (cpuShare, error) {
			return smtShare(ctx, cache, pairs[shards[0]/d], s.Records)
		},
		Cell: func(ctx context.Context, sh cpuShare, shard int, seed uint64) (Fig4Cell, error) {
			return runSMTPair(ctx, sh.tl, sh.a, sh.b, dirs[shard%d], seed)
		},
	}
	return sp, func(cells []Fig4Cell) (Fig5Result, error) {
		res := Fig5Result{Rows: make([]Fig5Row, len(pairs))}
		for pi := range pairs {
			row := Fig5Row{Pair: pairs[pi]}
			copy(row.Cells[:], cells[pi*d:(pi+1)*d])
			res.Rows[pi] = row
		}
		res.Avg = avgFig4Cells(res.Rows, func(r Fig5Row) [4]Fig4Cell { return r.Cells })
		return res, nil
	}, nil
}

// smtShare fetches an SMT pair's traces and builds their memory
// timeline.
func smtShare(ctx context.Context, cache *tracestore.Store, pair [2]string, records int) (cpuShare, error) {
	a, _, err := cache.GetColumns(pair[0], records)
	if err != nil {
		return cpuShare{}, err
	}
	b, _, err := cache.GetColumns(pair[1], records)
	if err != nil {
		return cpuShare{}, err
	}
	tl, err := cpu.NewSMTTimeline(ctx, cpu.ConfigFor(a.Name), a, b)
	return cpuShare{a: a, b: b, tl: tl}, err
}

// Render writes the figure as a text table (shared renderer: results.Grid).
func (r Fig5Result) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 26, Sep: " | "}
	g.Row(w, "pair", results.Cells("%s dir/tgt/hm-ipc", Fig4Dirs()...)...)
	for _, row := range r.Rows {
		g.Row(w, row.Pair[0]+"_"+row.Pair[1], fig4TripleCells(row.Cells)...)
	}
	g.Row(w, "AVG", fig4TripleCells(r.Avg)...)
}

// ---------------------------------------------------------------------------
// Fig. 6 — aggressive re-randomization sweep.

// Fig6Point is one r value's averaged outcome for ST_TAGE_SC_L_64KB in SMT.
type Fig6Point struct {
	R        float64
	Accuracy float64 // OAE-style effective accuracy (both threads)
	NormIPC  float64 // harmonic-mean IPC vs unprotected
	Rerands  uint64
}

// Fig6Result is the sweep.
type Fig6Result struct {
	Points []Fig6Point
}

// DefaultFig6Sweep is the paper's r axis: from the operating point down to
// values where re-randomization fires every few hundred events.
func DefaultFig6Sweep() []float64 { return []float64{5e-2, 5e-3, 5e-4, 5e-5, 5e-6} }

// fig6Cell is one (r, pair) measurement before aggregation. Its fields
// are exported so the cell survives the JSON round-trip through a wire
// backend (see harness.CellResult).
type fig6Cell struct {
	Acc, IPC float64
	Rerands  uint64
}

// fig6Scenario declares Fig. 6's (r × pair) cells across the sweep in
// p.Sweep (DefaultFig6Sweep unless set) and the sweep's points over them. The pair's SMT memory
// timeline and its unprotected TAGE64 baseline depend only on the pair,
// not on r, so the pair's cells share both across the sweep and each
// replays only its ST model.
func fig6Scenario(p harness.Params, pool *harness.Pool) (harness.Space[cpuShare, fig6Cell], func([]fig6Cell) (Fig6Result, error), error) {
	s := scaleOf(p)
	rs := p.Sweep
	pairs := capList(trace.SMTPairsExtended(), s.MaxPairs)
	cache := pool.Traces()
	np := len(pairs)
	sp := harness.Space[cpuShare, fig6Cell]{
		Scope: "fig6", N: len(rs) * np,
		Group: func(shard int) string {
			return harness.PairLocality(pairs[shard%np][0], pairs[shard%np][1], s.Records)
		},
		Shared: func(ctx context.Context, shards []int, _ []uint64) (cpuShare, error) {
			sh, err := smtShare(ctx, cache, pairs[shards[0]%np], s.Records)
			if err != nil {
				return cpuShare{}, err
			}
			base, err := cpu.New(cpu.ConfigFor(sh.a.Name), &sim.UnitModel{
				ModelName: "TAGE64", Unit: core.NewUnprotectedUnit(core.DirTAGE64)}).RunSMTTimelineCtx(ctx, sh.tl, sh.a, sh.b)
			if err != nil {
				return cpuShare{}, err
			}
			sh.baseIPC = base.HarmonicMeanIPC()
			return sh, nil
		},
		Cell: func(ctx context.Context, sh cpuShare, shard int, seed uint64) (fig6Cell, error) {
			th := token.Derive(rs[shard/np])
			stModel := core.NewModel(core.ModelConfig{Dir: core.DirTAGE64, Thresholds: &th, Seed: seed})
			st, err := cpu.New(cpu.ConfigFor(sh.a.Name), stModel).RunSMTTimelineCtx(ctx, sh.tl, sh.a, sh.b)
			if err != nil {
				return fig6Cell{}, err
			}
			misp := st.PerThread[0].Branch.Mispredicts + st.PerThread[1].Branch.Mispredicts
			total := uint64(st.PerThread[0].Branch.Records + st.PerThread[1].Branch.Records)
			return fig6Cell{
				Acc:     1 - float64(misp)/float64(total),
				IPC:     st.HarmonicMeanIPC() / sh.baseIPC,
				Rerands: stModel.Rerandomizations(),
			}, nil
		},
	}
	return sp, func(cells []fig6Cell) (Fig6Result, error) {
		var res Fig6Result
		for ri, r := range rs {
			var accs, ipcs []float64
			var rerands uint64
			for _, c := range cells[ri*np : (ri+1)*np] {
				accs = append(accs, c.Acc)
				ipcs = append(ipcs, c.IPC)
				rerands += c.Rerands
			}
			res.Points = append(res.Points, Fig6Point{
				R:        r,
				Accuracy: stats.Mean(accs),
				NormIPC:  stats.Mean(ipcs),
				Rerands:  rerands,
			})
		}
		return res, nil
	}, nil
}

// Render writes the sweep (shared renderer: results.Grid).
func (r Fig6Result) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 10}
	g.Row(w, "r", append(results.Cells("%-10s", "accuracy", "norm-IPC"), "rerandomizations")...)
	for _, p := range r.Points {
		g.Row(w, fmt.Sprintf("%.0e", p.R),
			fmt.Sprintf("%-10.3f", p.Accuracy), fmt.Sprintf("%-10.3f", p.NormIPC),
			fmt.Sprintf("%d", p.Rerands))
	}
}

// ---------------------------------------------------------------------------
// §VI-A.5 — attack complexities and thresholds.

// ThresholdReport couples the analytic complexity table with derived
// thresholds.
type ThresholdReport struct {
	Complexities []analysis.Complexity
	R            float64
	MispThresh   float64
	EvictThresh  float64
}

// RunThresholds evaluates the §VI numbers at difficulty factor r.
func RunThresholds(r float64) ThresholdReport {
	misp, evict := analysis.Thresholds(r)
	return ThresholdReport{
		Complexities: analysis.SectionVI(),
		R:            r,
		MispThresh:   misp,
		EvictThresh:  evict,
	}
}

// Render writes the report (shared renderer: results.Grid).
func (t ThresholdReport) Render(w io.Writer) {
	rows := append([]analysis.Complexity(nil), t.Complexities...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Events < rows[j].Events })
	g := results.Grid{LabelWidth: 44}
	g.Row(w, "attack", fmt.Sprintf("%-16s", "metric"), "events (50% success)")
	for _, c := range rows {
		g.Row(w, c.Attack, fmt.Sprintf("%-16s", c.Metric), fmt.Sprintf("%.4g", c.Events))
	}
	fmt.Fprintf(w, "\nthresholds at r=%g: mispredictions %.4g, evictions %.4g\n",
		t.R, t.MispThresh, t.EvictThresh)
}

// ---------------------------------------------------------------------------
// Γ sweep — the security side of Fig. 6.

// GammaResult tabulates epoch-success probabilities across r values.
type GammaResult struct {
	Rows []analysis.GammaSweepRow
}

// DefaultGammaSweep is the gamma scenario's r axis: the paper's r = 0.05
// and the five decades below it.
func DefaultGammaSweep() []float64 {
	return []float64{0.05, 0.005, 5e-4, 5e-5, 5e-6, 5e-7}
}

// RunGamma evaluates the Γ security table at the given r values.
func RunGamma(rs []float64) GammaResult {
	if len(rs) == 0 {
		rs = DefaultGammaSweep()
	}
	return GammaResult{Rows: analysis.GammaSweep(rs)}
}

// Render writes the sweep (shared renderer: results.Grid).
func (g GammaResult) Render(w io.Writer) {
	grid := results.Grid{LabelWidth: 10}
	grid.Row(w, "r", append(results.Cells("%14s", "misp Γ", "evict Γ", "P(epoch)"),
		fmt.Sprintf("%16s", "epochs to 50%"))...)
	for _, row := range g.Rows {
		grid.Row(w, fmt.Sprintf("%.0e", row.R),
			fmt.Sprintf("%14.3e", row.MispThreshold),
			fmt.Sprintf("%14.3e", row.EvictThreshold),
			fmt.Sprintf("%14.5f", row.EpochSuccess),
			fmt.Sprintf("%16.3e", row.EpochsFor50))
	}
}
