package cpu

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/cache"
	"stbpu/internal/core"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// fused is the outcome of a fused-loop reference run: the cycle total,
// and per thread the instructions, records and branch event counts.
type fused struct {
	cycles  uint64
	instrs  [2]uint64
	records [2]int
	branch  [2]bpu.Counters
}

// counts extracts the event counts of a branch result.
func counts(r sim.Result) bpu.Counters {
	return bpu.Counters{
		Mispredicts: r.Mispredicts, Conds: r.Conds, DirCorrect: r.DirCorrect,
		TargetKnown: r.TargetKnown, TargetCorrect: r.TargetCorrect,
		Evictions: r.Evictions, BTBMisses: r.BTBMisses,
	}
}

// soloOutcome and smtOutcome project replay results onto what the fused
// references compute.
func soloOutcome(r Result) fused {
	return fused{cycles: r.Cycles, instrs: [2]uint64{r.Instructions},
		records: [2]int{r.Branch.Records}, branch: [2]bpu.Counters{counts(r.Branch)}}
}

func smtOutcome(t *testing.T, r SMTResult) fused {
	t.Helper()
	if r.PerThread[0].Cycles != r.Cycles || r.PerThread[1].Cycles != r.Cycles {
		t.Errorf("SMT threads do not share the clock: %d/%d vs %d", r.PerThread[0].Cycles, r.PerThread[1].Cycles, r.Cycles)
	}
	f := fused{cycles: r.Cycles}
	for th, pt := range r.PerThread {
		f.instrs[th], f.records[th], f.branch[th] = pt.Instructions, pt.Branch.Records, counts(pt.Branch)
	}
	return f
}

// refRun is the interval model as a single fused loop over AoS records —
// memory and branch side interleaved per record, BTB misses charged
// BTBMissPenalty as before the split — kept as the reference the
// columnar Timeline + replay split must reproduce bit for bit.
func refRun(cfg Config, m sim.Model, tr *trace.Trace) fused {
	mem := cache.TableIVHierarchy()
	var f fused
	robOverlap := uint64(cfg.ROB / cfg.Width)
	for i, rec := range tr.Records {
		h := recHash(rec.PC, rec.Target, i)
		block := 1 + int(h%uint64(2*cfg.InstrPerBranch))
		f.instrs[0] += uint64(block) + 1
		f.cycles += uint64((block + cfg.Width - 1) / cfg.Width)
		il := mem.AccessInstr(rec.PC)
		if il > 4 {
			f.cycles += uint64(il) / 2
		}
		nLoads := int(float64(block) * cfg.LoadFrac)
		pendingStall := uint64(0)
		for l := 0; l < nLoads; l++ {
			lat := uint64(mem.AccessData(loadAddr(cfg.DataFootprint, h, l)))
			if lat > robOverlap {
				pendingStall += (lat - robOverlap) / 2
			}
		}
		f.cycles += pendingStall
		_, ev := m.Step(rec)
		f.branch[0].Note(ev)
		if ev.Mispredict() {
			f.cycles += uint64(cfg.MispredictPenalty)
		} else if ev.BTBMiss() {
			f.cycles += uint64(cfg.BTBMissPenalty)
		}
	}
	f.records[0] = len(tr.Records)
	return f
}

// refRunSMT is the fused-loop reference for an SMT co-run.
func refRunSMT(cfg Config, m sim.Model, a, b *trace.Trace) fused {
	mem := cache.TableIVHierarchy()
	var f fused
	robOverlap := uint64(cfg.ROB / cfg.Width / 2)
	traces := [2]*trace.Trace{a, b}
	idx := [2]int{}
	for idx[0] < len(a.Records) || idx[1] < len(b.Records) {
		for t := 0; t < 2; t++ {
			tr := traces[t]
			if idx[t] >= len(tr.Records) {
				continue
			}
			rec := tr.Records[idx[t]]
			if t == 1 {
				rec.PID += 1 << 16
				rec.Program += 1 << 12
			}
			i := idx[t]
			idx[t]++
			h := recHash(rec.PC, rec.Target, i)
			block := 1 + int(h%uint64(2*cfg.InstrPerBranch))
			f.instrs[t] += uint64(block) + 1
			f.cycles += uint64((block + cfg.Width - 1) / cfg.Width)
			il := mem.AccessInstr(rec.PC)
			if il > 4 {
				f.cycles += uint64(il) / 2
			}
			nLoads := int(float64(block) * cfg.LoadFrac)
			for l := 0; l < nLoads; l++ {
				lat := uint64(mem.AccessData(loadAddr(cfg.DataFootprint, h, l)))
				if lat > robOverlap {
					f.cycles += (lat - robOverlap) / 2
				}
			}
			_, ev := m.Step(rec)
			f.branch[t].Note(ev)
			if ev.Mispredict() {
				f.cycles += uint64(cfg.MispredictPenalty)
			} else if ev.BTBMiss() {
				f.cycles += uint64(cfg.BTBMissPenalty)
			}
		}
	}
	f.records = [2]int{len(a.Records), len(b.Records)}
	return f
}

// equivalenceModels is the Fig. 4-6 lineup — every direction predictor,
// unprotected and ST — plus the Fig. 3 kinds. Each call builds fresh
// models.
func equivalenceModels() []sim.Model {
	var ms []sim.Model
	for _, dir := range []core.DirKind{core.DirPerceptron, core.DirSKLCond, core.DirTAGE64, core.DirTAGE8} {
		ms = append(ms, baselineModel(dir), &sim.STBPUModel{
			Inner: core.NewModel(core.ModelConfig{Dir: dir, Seed: 41})})
	}
	for _, k := range sim.Fig3Kinds() {
		ms = append(ms, sim.New(k, sim.Options{Seed: 41}))
	}
	return ms
}

// TestTimelineReplayMatchesFusedLoop: RunCtx (columnar timeline + branch
// replay) is bit-identical to the fused AoS reference for every model of
// the lineup on workloads with different block lengths and footprints.
func TestTimelineReplayMatchesFusedLoop(t *testing.T) {
	for _, name := range []string{"505.mcf", "519.lbm", "548.exchange2", "mysql_128con_50s"} {
		tr := genTrace(t, name, 6_000)
		cfg := ConfigFor(name)
		refs := equivalenceModels()
		for i, m := range equivalenceModels() {
			want := refRun(cfg, refs[i], tr)
			got, err := New(cfg, m).RunCtx(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}
			if soloOutcome(got) != want {
				t.Errorf("%s/%s: split run diverged from fused loop:\n got %+v\nwant %+v", name, m.Name(), soloOutcome(got), want)
			}
		}
	}
}

// TestSMTTimelineReplayMatchesFusedLoop: the same for SMT co-runs,
// including pairs of unequal length where one thread drains first and
// the other runs on alone.
func TestSMTTimelineReplayMatchesFusedLoop(t *testing.T) {
	pairs := []struct {
		a, b   string
		na, nb int
	}{
		{"503.bwaves", "541.leela", 5_000, 5_000},
		{"505.mcf", "531.deepsjeng", 7_000, 2_500},    // thread 1 drains first
		{"525.x264", "mysql_64con_50s", 1_500, 6_000}, // thread 0 drains first
	}
	for _, p := range pairs {
		a, b := genTrace(t, p.a, p.na), genTrace(t, p.b, p.nb)
		cfg := ConfigFor(p.a)
		refs := equivalenceModels()
		for i, m := range equivalenceModels() {
			want := refRunSMT(cfg, refs[i], a, b)
			got, err := New(cfg, m).RunSMTCtx(context.Background(), a, b)
			if err != nil {
				t.Fatal(err)
			}
			if smtOutcome(t, got) != want {
				t.Errorf("%s+%s/%s: split SMT run diverged from fused loop:\n got %+v\nwant %+v",
					p.a, p.b, m.Name(), smtOutcome(t, got), want)
			}
		}
	}
}

// TestSharedTimelineMatchesPerModelRuns: one timeline replayed by many
// models at once, as the Fig. 4-6 cells do, gives each the result of its
// own full run, so sharing it across cells is invisible in results.
func TestSharedTimelineMatchesPerModelRuns(t *testing.T) {
	ctx := context.Background()
	a, b := genTrace(t, "549.fotonik3d", 4_000), genTrace(t, "557.xz", 3_000)
	ca, cb := trace.FromTrace(a), trace.FromTrace(b)
	cfg := ConfigFor(a.Name)
	solo, err := NewTimeline(ctx, cfg, ca)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := NewSMTTimeline(ctx, cfg, ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	models, smtModels := equivalenceModels(), equivalenceModels()
	got := make([]Result, len(models))
	gotSMT := make([]SMTResult, len(models))
	errs := make([]error, 2*len(models))
	var wg sync.WaitGroup
	for i := range models {
		i := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			got[i], errs[2*i] = New(cfg, models[i]).RunTimelineCtx(ctx, solo, ca)
		}()
		go func() {
			defer wg.Done()
			gotSMT[i], errs[2*i+1] = New(cfg, smtModels[i]).RunSMTTimelineCtx(ctx, smt, ca, cb)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	refs, smtRefs := equivalenceModels(), equivalenceModels()
	for i := range models {
		if want := refRun(cfg, refs[i], a); soloOutcome(got[i]) != want {
			t.Errorf("%s: shared solo timeline diverged", models[i].Name())
		}
		if want := refRunSMT(cfg, smtRefs[i], a, b); smtOutcome(t, gotSMT[i]) != want {
			t.Errorf("%s: shared SMT timeline diverged", models[i].Name())
		}
	}
}

func TestTimelineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, b := genTrace(t, "505.mcf", 1_000), genTrace(t, "541.leela", 1_000)
	cfg := TableIVConfig()
	if tl, err := NewTimeline(ctx, cfg, trace.FromTrace(a)); !errors.Is(err, context.Canceled) || tl != nil {
		t.Errorf("NewTimeline on a canceled ctx = (%v, %v), want (nil, context.Canceled)", tl, err)
	}
	if tl, err := NewSMTTimeline(ctx, cfg, trace.FromTrace(a), trace.FromTrace(b)); !errors.Is(err, context.Canceled) || tl != nil {
		t.Errorf("NewSMTTimeline on a canceled ctx = (%v, %v), want (nil, context.Canceled)", tl, err)
	}
	c := New(cfg, baselineModel(core.DirSKLCond))
	if _, err := c.RunCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx err = %v, want context.Canceled", err)
	}
	if _, err := c.RunSMTCtx(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Errorf("RunSMTCtx err = %v, want context.Canceled", err)
	}
}

// TestTimelineRejectsMismatchedReplay: a timeline only replays against the
// configuration, mode and traces it was built from.
func TestTimelineRejectsMismatchedReplay(t *testing.T) {
	ctx := context.Background()
	a, b := trace.FromTrace(genTrace(t, "505.mcf", 1_000)), trace.FromTrace(genTrace(t, "541.leela", 1_000))
	cfg := TableIVConfig()
	solo, err := NewTimeline(ctx, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := NewSMTTimeline(ctx, cfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.MispredictPenalty++
	c := New(cfg, baselineModel(core.DirSKLCond))
	for name, err := range map[string]error{
		"other trace": func() error { _, err := c.RunTimelineCtx(ctx, solo, b); return err }(),
		"other config": func() error {
			_, err := New(other, baselineModel(core.DirSKLCond)).RunTimelineCtx(ctx, solo, a)
			return err
		}(),
		"solo as smt":  func() error { _, err := c.RunSMTTimelineCtx(ctx, solo, a, b); return err }(),
		"smt as solo":  func() error { _, err := c.RunTimelineCtx(ctx, smt, a); return err }(),
		"swapped pair": func() error { _, err := c.RunSMTTimelineCtx(ctx, smt, b, a); return err }(),
	} {
		if err == nil {
			t.Errorf("%s: replay accepted a mismatched timeline", name)
		}
	}
}

// btbMissCheck wraps a model's columnar path, steps it one row at a time
// and fails the test on any row that reports a BTB miss without a
// misprediction.
type btbMissCheck struct {
	sim.Model
	t      *testing.T
	misses *uint64
}

func (c btbMissCheck) StepColumns(cols *trace.Columns, lo, hi int, acc *bpu.Counters) {
	step := sim.Columnar(c.Model)
	for i := lo; i < hi; i++ {
		before := *acc
		step.StepColumns(cols, i, i+1, acc)
		if acc.BTBMisses > before.BTBMisses {
			*c.misses++
			if acc.Mispredicts == before.Mispredicts {
				c.t.Errorf("%s: BTB miss without a mispredict at pc %#x", c.Model.Name(), cols.PCs[i])
			}
		}
	}
}

// TestBTBMissAlwaysMispredicts pins the invariant that lets the interval
// model drop BTBMissPenalty: a BTB miss (a taken branch with no valid
// target) is always a target mispredict, so cycles are exactly the
// timeline's plus MispredictPenalty per mispredict. It checks every row
// of solo and SMT replays — where thread 1's rows carry offset PIDs —
// for the Fig. 3 kinds and the Fig. 4 lineup.
func TestBTBMissAlwaysMispredicts(t *testing.T) {
	ctx := context.Background()
	lineup := func(misses *uint64) []sim.Model {
		ms := equivalenceModels()
		for i, m := range ms {
			ms[i] = btbMissCheck{Model: m, t: t, misses: misses}
		}
		return ms
	}
	pairs := [][2]string{trace.SMTPairs()[0], {"mysql_128con_50s", "505.mcf"}, {"519.lbm", "548.exchange2"}}
	var misses uint64
	for _, p := range pairs {
		a, b := trace.FromTrace(genTrace(t, p[0], 4_000)), trace.FromTrace(genTrace(t, p[1], 3_000))
		cfg := ConfigFor(a.Name)
		solo, err := NewTimeline(ctx, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		smt, err := NewSMTTimeline(ctx, cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lineup(&misses) {
			if _, err := New(cfg, m).RunTimelineCtx(ctx, solo, a); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range lineup(&misses) {
			if _, err := New(cfg, m).RunSMTTimelineCtx(ctx, smt, a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if misses == 0 {
		t.Fatal("no run reported a BTB miss; the invariant was never exercised")
	}
}
