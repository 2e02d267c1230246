package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

func genTrace(t testing.TB, name string, n int) (*trace.Trace, trace.Profile) {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

func runKind(t testing.TB, kind ModelKind, name string, n int) Result {
	tr, p := genTrace(t, name, n)
	m := New(kind, Options{SharedTokens: p.SharedTokens, Seed: 1})
	return Run(m, tr)
}

func TestModelKindStrings(t *testing.T) {
	for _, k := range Fig3Kinds() {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if len(Fig3Kinds()) != 5 {
		t.Errorf("Fig3Kinds has %d models, want 5", len(Fig3Kinds()))
	}
}

func TestBaselineAccuracySane(t *testing.T) {
	res := runKind(t, KindBaseline, "519.lbm", 60_000)
	if oae := res.OAE(); oae < 0.85 || oae > 1 {
		t.Errorf("baseline OAE on lbm = %.3f", oae)
	}
	if res.Conds == 0 || res.TargetKnown == 0 {
		t.Error("event accounting empty")
	}
	if res.DirectionRate() < 0.85 || res.TargetRate() < 0.85 {
		t.Errorf("component rates too low: dir %.3f target %.3f",
			res.DirectionRate(), res.TargetRate())
	}
}

func TestSTBPUNearBaseline(t *testing.T) {
	// Fig. 3 core claim: STBPU within ~2pp of baseline per workload.
	for _, wl := range []string{"519.lbm", "505.mcf", "apache2_prefork_c128"} {
		base := runKind(t, KindBaseline, wl, 60_000)
		st := runKind(t, KindSTBPU, wl, 60_000)
		if st.OAE() < base.OAE()-0.03 {
			t.Errorf("%s: STBPU OAE %.3f vs baseline %.3f", wl, st.OAE(), base.OAE())
		}
	}
}

func TestFlushingHurtsServerWorkloads(t *testing.T) {
	// Fig. 3 shape: the microcode models lose heavily on context-switch
	// rich workloads, far more than STBPU does.
	base := runKind(t, KindBaseline, "mysql_128con_50s", 80_000)
	u2 := runKind(t, KindUcode2, "mysql_128con_50s", 80_000)
	st := runKind(t, KindSTBPU, "mysql_128con_50s", 80_000)
	if u2.OAE() > base.OAE()-0.02 {
		t.Errorf("ucode2 should lose clearly on mysql: %.3f vs base %.3f", u2.OAE(), base.OAE())
	}
	if st.OAE() < u2.OAE() {
		t.Errorf("STBPU (%.3f) should beat ucode2 (%.3f) on mysql", st.OAE(), u2.OAE())
	}
	if u2.Flushes == 0 {
		t.Error("flushing model recorded no flushes on a server trace")
	}
}

func TestUcode1WorseThanUcode2(t *testing.T) {
	// STIBP partitioning costs extra capacity on top of flushing.
	u1 := runKind(t, KindUcode1, "apache2_prefork_c256", 80_000)
	u2 := runKind(t, KindUcode2, "apache2_prefork_c256", 80_000)
	if u1.OAE() > u2.OAE()+0.01 {
		t.Errorf("ucode1 (%.3f) should not beat ucode2 (%.3f)", u1.OAE(), u2.OAE())
	}
}

func TestConservativeBetween(t *testing.T) {
	// Conservative avoids flushing but pays capacity and sharing: it
	// should sit between the microcode models and STBPU on server loads.
	cons := runKind(t, KindConservative, "apache2_prefork_c128", 80_000)
	u2 := runKind(t, KindUcode2, "apache2_prefork_c128", 80_000)
	st := runKind(t, KindSTBPU, "apache2_prefork_c128", 80_000)
	if cons.OAE() < u2.OAE()-0.01 {
		t.Errorf("conservative (%.3f) should beat flushing ucode2 (%.3f)", cons.OAE(), u2.OAE())
	}
	if cons.OAE() > st.OAE()+0.01 {
		t.Errorf("conservative (%.3f) should not beat STBPU (%.3f)", cons.OAE(), st.OAE())
	}
}

func TestConservativeIsolatesEntities(t *testing.T) {
	m := New(KindConservative, Options{})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1}
	m.Step(rec)
	m.Step(rec) // warm for PID 1
	rec2 := rec
	rec2.PID = 2
	pred, _ := m.Step(rec2)
	if pred.TargetValid && pred.Target == rec.Target {
		t.Error("conservative model allowed cross-entity BTB reuse")
	}
}

func TestSTBPUWithDifferentPredictors(t *testing.T) {
	tr, p := genTrace(t, "505.mcf", 30_000)
	for _, dir := range []core.DirKind{core.DirSKLCond, core.DirTAGE8, core.DirTAGE64, core.DirPerceptron} {
		m := New(KindSTBPU, Options{SharedTokens: p.SharedTokens, Dir: dir})
		res := Run(m, tr)
		if res.OAE() < 0.6 {
			t.Errorf("ST_%v OAE = %.3f", dir, res.OAE())
		}
	}
}

func TestResultCounters(t *testing.T) {
	res := runKind(t, KindBaseline, "mysql_64con_50s", 40_000)
	if res.CtxSwitches == 0 || res.ModeSwitches == 0 {
		t.Errorf("server trace counters: ctx=%d mode=%d", res.CtxSwitches, res.ModeSwitches)
	}
	if res.Records != 40_000 {
		t.Errorf("records = %d", res.Records)
	}
}

func TestSTBPURecordsRerandomizations(t *testing.T) {
	// With aggressive thresholds, re-randomizations must appear in the
	// result.
	tr, p := genTrace(t, "505.mcf", 40_000)
	th := tokenThresholds(100, 100)
	m := New(KindSTBPU, Options{SharedTokens: p.SharedTokens, Thresholds: &th})
	res := Run(m, tr)
	if res.Rerandomizations == 0 {
		t.Error("aggressive thresholds produced no re-randomizations")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runKind(t, KindSTBPU, "505.mcf", 20_000)
	b := runKind(t, KindSTBPU, "505.mcf", 20_000)
	if a.Mispredicts != b.Mispredicts || a.Evictions != b.Evictions {
		t.Error("simulation not deterministic")
	}
}

func BenchmarkRunBaseline(b *testing.B) {
	tr, _ := genTrace(b, "505.mcf", 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(New(KindBaseline, Options{}), tr)
	}
}

func BenchmarkRunSTBPU(b *testing.B) {
	tr, p := genTrace(b, "505.mcf", 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(New(KindSTBPU, Options{SharedTokens: p.SharedTokens}), tr)
	}
}

// BenchmarkReplayPath times the columnar StepColumns replay (what the
// suite runs) on a resident trace, without Run's AoS conversion.
func BenchmarkReplayPath(b *testing.B) {
	tr, p := genTrace(b, "505.mcf", 100_000)
	cols := trace.FromTrace(tr)
	for _, bc := range []struct {
		name string
		mk   func() Model
	}{
		{"baseline", func() Model { return New(KindBaseline, Options{}) }},
		{"stbpu", func() Model { return New(KindSTBPU, Options{SharedTokens: p.SharedTokens}) }},
	} {
		b.Run(bc.name+"/columns", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunColumnsCtx(context.Background(), bc.mk(), cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSTBTDecode compares the two STBT decode paths on a 100k
// 505.mcf trace: straight into columns (the disk-tier hot path) vs the
// AoS wrapper that also materializes records.
func BenchmarkSTBTDecode(b *testing.B) {
	tr, _ := genTrace(b, "505.mcf", 100_000)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("columns", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ReadColumns(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("records", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Read(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// tokenThresholds builds a threshold config for tests.
func tokenThresholds(misp, evict uint64) (th token.Thresholds) {
	th.Mispredictions = misp
	th.Evictions = evict
	return th
}

// stepOnly hides a model's ColumnModel implementation so replay takes the
// per-record Step adapter; Finalize is forwarded so run-scoped counters
// still land in the Result.
type stepOnly struct{ m Model }

func (s stepOnly) Name() string                                       { return s.m.Name() }
func (s stepOnly) Step(rec trace.Record) (bpu.Prediction, bpu.Events) { return s.m.Step(rec) }
func (s stepOnly) Finalize(res *Result) {
	if f, ok := s.m.(Finalizer); ok {
		f.Finalize(res)
	}
}

func TestFinalizerReportsRunScopedCounters(t *testing.T) {
	tr, prof := genTrace(t, "mysql_128con_50s", 40_000)
	fl, err := RunCtx(context.Background(), New(KindUcode2, Options{SharedTokens: prof.SharedTokens}), tr)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Flushes == 0 {
		t.Error("FlushModel.Finalize reported no flushes on a server trace")
	}
	th := tokenThresholds(100, 100)
	st, err := RunCtx(context.Background(),
		New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Thresholds: &th}), tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rerandomizations == 0 {
		t.Error("STBPUModel.Finalize reported no re-randomizations under aggressive thresholds")
	}
}

// cancelingChunks cancels the run's context from inside StepColumns, so
// the tests can pin down where replay observes cancellation.
type cancelingChunks struct {
	m      Model
	cancel context.CancelFunc
	chunks int
}

func (c *cancelingChunks) Name() string                                       { return c.m.Name() }
func (c *cancelingChunks) Step(rec trace.Record) (bpu.Prediction, bpu.Events) { return c.m.Step(rec) }
func (c *cancelingChunks) StepColumns(cols *trace.Columns, lo, hi int, acc *Counters) {
	Columnar(c.m).StepColumns(cols, lo, hi, acc)
	c.chunks++
	c.cancel()
}

func TestRunCtxCancellationOnColumnarPath(t *testing.T) {
	tr, prof := genTrace(t, "505.mcf", 4*runCheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cc := &cancelingChunks{m: New(KindBaseline, Options{SharedTokens: prof.SharedTokens}), cancel: cancel}
	if _, err := RunCtx(ctx, cc, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation lands at the next chunk boundary: exactly one chunk ran.
	if cc.chunks != 1 {
		t.Errorf("chunks after cancel = %d, want 1", cc.chunks)
	}
}

func TestRunCtxCanceledMidReplay(t *testing.T) {
	tr, prof := genTrace(t, "505.mcf", 100_000)
	m := New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, m, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx on canceled ctx: err = %v, want context.Canceled", err)
	}

	// An uncanceled context must reproduce Run exactly.
	m2 := New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7})
	got, err := RunCtx(context.Background(), m2, tr)
	if err != nil {
		t.Fatal(err)
	}
	m3 := New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7})
	if want := Run(m3, tr); got != want {
		t.Error("RunCtx and Run diverge on the same model/trace")
	}
}

// TestColumnarPathMatchesStep pins the replay determinism contract:
// stepping the struct-of-arrays view through StepColumns, directly and
// through the AoS RunCtx entry point, is bit-identical to stepping the
// same records one at a time through Step, for every Fig. 3 model.
func TestColumnarPathMatchesStep(t *testing.T) {
	tr, prof := genTrace(t, "mysql_128con_50s", 30_000)
	cols := trace.FromTrace(tr)
	for _, kind := range Fig3Kinds() {
		opt := Options{SharedTokens: prof.SharedTokens, Seed: 11}
		if _, ok := New(kind, opt).(ColumnModel); !ok {
			t.Errorf("%v does not implement ColumnModel", kind)
		}
		want, err := RunColumnsCtx(context.Background(), stepOnly{New(kind, opt)}, cols)
		if err != nil {
			t.Fatal(err)
		}
		columnar, err := RunColumnsCtx(context.Background(), New(kind, opt), cols)
		if err != nil {
			t.Fatal(err)
		}
		if columnar != want {
			t.Errorf("%v: columnar %+v != stepped %+v", kind, columnar, want)
		}
		viaRecords, err := RunCtx(context.Background(), New(kind, opt), tr)
		if err != nil {
			t.Fatal(err)
		}
		if viaRecords != want {
			t.Errorf("%v: RunCtx %+v != stepped %+v", kind, viaRecords, want)
		}
	}
}

// TestRunColumnsCanceled pins cancellation behavior on the columnar
// path: an already-canceled context aborts before any stepping, and an
// uncanceled run reproduces RunColumns exactly.
func TestRunColumnsCanceled(t *testing.T) {
	tr, prof := genTrace(t, "505.mcf", 40_000)
	cols := trace.FromTrace(tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7})
	if _, err := RunColumnsCtx(ctx, m, cols); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	got, err := RunColumnsCtx(context.Background(),
		New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7}), cols)
	if err != nil {
		t.Fatal(err)
	}
	want := RunColumns(New(KindSTBPU, Options{SharedTokens: prof.SharedTokens, Seed: 7}), cols)
	if got != want {
		t.Error("RunColumnsCtx and RunColumns diverge on the same model/trace")
	}
}
