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

// refRun is the interval model as a single fused loop — memory and branch
// side interleaved per record — kept as the reference the two-pass
// Timeline + replay split must reproduce bit for bit.
func refRun(cfg Config, m sim.Model, tr *trace.Trace) Result {
	mem := cache.TableIVHierarchy()
	res := Result{Workload: tr.Name, Model: m.Name()}
	var cycles, instrs uint64
	robOverlap := uint64(cfg.ROB / cfg.Width)
	for i, rec := range tr.Records {
		h := recHash(rec, i)
		block := 1 + int(h%uint64(2*cfg.InstrPerBranch))
		instrs += uint64(block) + 1
		cycles += uint64((block + cfg.Width - 1) / cfg.Width)
		il := mem.AccessInstr(rec.PC)
		if il > 4 {
			cycles += uint64(il) / 2
		}
		nLoads := int(float64(block) * cfg.LoadFrac)
		pendingStall := uint64(0)
		for l := 0; l < nLoads; l++ {
			lat := uint64(mem.AccessData(loadAddr(cfg.DataFootprint, h, l)))
			if lat > robOverlap {
				pendingStall += (lat - robOverlap) / 2
			}
		}
		cycles += pendingStall
		_, ev := m.Step(rec)
		accountBranch(&res.Branch, ev)
		if ev.Mispredict {
			cycles += uint64(cfg.MispredictPenalty)
		} else if ev.BTBMiss {
			cycles += uint64(cfg.BTBMissPenalty)
		}
	}
	res.Branch.Model = m.Name()
	res.Branch.Workload = tr.Name
	res.Branch.Records = len(tr.Records)
	res.Instructions = instrs
	res.Cycles = cycles
	return res
}

// refRunSMT is the fused-loop reference for an SMT co-run.
func refRunSMT(cfg Config, m sim.Model, a, b *trace.Trace) SMTResult {
	mem := cache.TableIVHierarchy()
	res := SMTResult{Workloads: [2]string{a.Name, b.Name}, Model: m.Name()}
	res.PerThread[0] = Result{Workload: a.Name, Model: m.Name()}
	res.PerThread[1] = Result{Workload: b.Name, Model: m.Name()}
	robOverlap := uint64(cfg.ROB / cfg.Width / 2)
	traces := [2]*trace.Trace{a, b}
	idx := [2]int{}
	var cycles uint64
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
			h := recHash(rec, i)
			block := 1 + int(h%uint64(2*cfg.InstrPerBranch))
			th := &res.PerThread[t]
			th.Instructions += uint64(block) + 1
			cycles += uint64((block + cfg.Width - 1) / cfg.Width)
			il := mem.AccessInstr(rec.PC)
			if il > 4 {
				cycles += uint64(il) / 2
			}
			nLoads := int(float64(block) * cfg.LoadFrac)
			for l := 0; l < nLoads; l++ {
				lat := uint64(mem.AccessData(loadAddr(cfg.DataFootprint, h, l)))
				if lat > robOverlap {
					cycles += (lat - robOverlap) / 2
				}
			}
			_, ev := m.Step(rec)
			accountBranch(&th.Branch, ev)
			if ev.Mispredict {
				cycles += uint64(cfg.MispredictPenalty)
			} else if ev.BTBMiss {
				cycles += uint64(cfg.BTBMissPenalty)
			}
		}
	}
	res.Cycles = cycles
	res.PerThread[0].Cycles = cycles
	res.PerThread[1].Cycles = cycles
	res.PerThread[0].Branch.Records = len(a.Records)
	res.PerThread[1].Branch.Records = len(b.Records)
	return res
}

// equivalenceModels is the Fig. 4-6 lineup: every direction predictor,
// unprotected and ST. Each call builds fresh models.
func equivalenceModels() []sim.Model {
	var ms []sim.Model
	for _, dir := range []core.DirKind{core.DirPerceptron, core.DirSKLCond, core.DirTAGE64, core.DirTAGE8} {
		ms = append(ms, baselineModel(dir), &sim.STBPUModel{
			Inner: core.NewModel(core.ModelConfig{Dir: dir, Seed: 41})})
	}
	return ms
}

// TestTimelineReplayMatchesFusedLoop: RunCtx (timeline + branch replay)
// is bit-identical to the fused reference for every model of the lineup
// on workloads with different block lengths and footprints.
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
			if got != want {
				t.Errorf("%s/%s: split run diverged from fused loop:\n got %+v\nwant %+v", name, m.Name(), got, want)
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
			if got != want {
				t.Errorf("%s+%s/%s: split SMT run diverged from fused loop:\n got %+v\nwant %+v",
					p.a, p.b, m.Name(), got, want)
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
	cfg := ConfigFor(a.Name)
	solo, err := NewTimeline(ctx, cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	smt, err := NewSMTTimeline(ctx, cfg, a, b)
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
			got[i], errs[2*i] = New(cfg, models[i]).RunTimelineCtx(ctx, solo, a)
		}()
		go func() {
			defer wg.Done()
			gotSMT[i], errs[2*i+1] = New(cfg, smtModels[i]).RunSMTTimelineCtx(ctx, smt, a, b)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	refs, smtRefs := equivalenceModels(), equivalenceModels()
	for i := range models {
		if want := refRun(cfg, refs[i], a); got[i] != want {
			t.Errorf("%s: shared solo timeline diverged", models[i].Name())
		}
		if want := refRunSMT(cfg, smtRefs[i], a, b); gotSMT[i] != want {
			t.Errorf("%s: shared SMT timeline diverged", models[i].Name())
		}
	}
}

func TestTimelineCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, b := genTrace(t, "505.mcf", 1_000), genTrace(t, "541.leela", 1_000)
	cfg := TableIVConfig()
	if tl, err := NewTimeline(ctx, cfg, a); !errors.Is(err, context.Canceled) || tl != nil {
		t.Errorf("NewTimeline on a canceled ctx = (%v, %v), want (nil, context.Canceled)", tl, err)
	}
	if tl, err := NewSMTTimeline(ctx, cfg, a, b); !errors.Is(err, context.Canceled) || tl != nil {
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
	a, b := genTrace(t, "505.mcf", 1_000), genTrace(t, "541.leela", 1_000)
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

// btbMissCheck wraps a model and fails the test on any step that reports
// a BTB miss without a misprediction.
type btbMissCheck struct {
	sim.Model
	t      *testing.T
	misses *uint64
}

func (c btbMissCheck) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	p, ev := c.Model.Step(rec)
	if ev.BTBMiss {
		*c.misses++
		if !ev.Mispredict {
			c.t.Errorf("%s: BTB miss without a mispredict at pc %#x", c.Model.Name(), rec.PC)
		}
	}
	return p, ev
}

// TestBTBMissAlwaysMispredicts pins the invariant behind penalty: a BTB
// miss (a taken branch with no valid target) is always a target
// mispredict, so BTBMissPenalty never applies and interval-model cycles
// are exactly the timeline's plus MispredictPenalty per mispredict. It
// covers the Fig. 3 kinds and the Fig. 4 lineup, solo and as SMT co-runs,
// where thread 1's records carry offset PIDs.
func TestBTBMissAlwaysMispredicts(t *testing.T) {
	ctx := context.Background()
	lineup := func(misses *uint64) []sim.Model {
		ms := equivalenceModels()
		for _, k := range sim.Fig3Kinds() {
			ms = append(ms, sim.New(k, sim.Options{Seed: 41}))
		}
		for i, m := range ms {
			ms[i] = btbMissCheck{Model: m, t: t, misses: misses}
		}
		return ms
	}
	pairs := [][2]string{trace.SMTPairs()[0], {"mysql_128con_50s", "505.mcf"}, {"519.lbm", "548.exchange2"}}
	var misses uint64
	for _, p := range pairs {
		a, b := genTrace(t, p[0], 4_000), genTrace(t, p[1], 3_000)
		cfg := ConfigFor(a.Name)
		pen := uint64(cfg.MispredictPenalty)
		solo, err := NewTimeline(ctx, cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		smt, err := NewSMTTimeline(ctx, cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lineup(&misses) {
			res, err := New(cfg, m).RunTimelineCtx(ctx, solo, a)
			if err != nil {
				t.Fatal(err)
			}
			if want := solo.Cycles() + pen*res.Branch.Mispredicts; res.Cycles != want {
				t.Errorf("%s on %s: cycles %d, want timeline + mispredicts × penalty = %d", m.Name(), a.Name, res.Cycles, want)
			}
		}
		for _, m := range lineup(&misses) {
			res, err := New(cfg, m).RunSMTTimelineCtx(ctx, smt, a, b)
			if err != nil {
				t.Fatal(err)
			}
			mp := res.PerThread[0].Branch.Mispredicts + res.PerThread[1].Branch.Mispredicts
			if want := smt.Cycles() + pen*mp; res.Cycles != want {
				t.Errorf("%s on %s+%s: cycles %d, want timeline + mispredicts × penalty = %d", m.Name(), a.Name, b.Name, res.Cycles, want)
			}
		}
	}
	if misses == 0 {
		t.Fatal("no run reported a BTB miss; the invariant was never exercised")
	}
}
