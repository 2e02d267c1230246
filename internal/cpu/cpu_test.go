package cpu

import (
	"context"
	"math"
	"testing"

	"stbpu/internal/core"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

func genTrace(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baselineModel(dir core.DirKind) sim.Model {
	return &sim.UnitModel{ModelName: "base_" + dir.String(), Unit: core.NewUnprotectedUnit(dir)}
}

func stModel(dir core.DirKind) sim.Model {
	return &sim.STBPUModel{Inner: core.NewModel(core.ModelConfig{Dir: dir})}
}

func TestTableIVConfig(t *testing.T) {
	cfg := TableIVConfig()
	if cfg.Width != 8 || cfg.ROB != 192 || cfg.IQ != 64 || cfg.LQ != 32 || cfg.SQ != 32 {
		t.Errorf("Table IV core parameters wrong: %+v", cfg)
	}
}

func TestIPCInPlausibleRange(t *testing.T) {
	tr := genTrace(t, "519.lbm", 30_000)
	c := New(TableIVConfig(), baselineModel(core.DirSKLCond))
	res := c.Run(tr)
	if res.Instructions == 0 || res.Cycles == 0 {
		t.Fatal("empty result")
	}
	ipc := res.IPC()
	if ipc < 0.3 || ipc > float64(TableIVConfig().Width) {
		t.Errorf("IPC = %.2f out of plausible range", ipc)
	}
}

func TestWorsePredictionLowersIPC(t *testing.T) {
	// The coupling Figs. 4-6 rely on: a model with more mispredictions
	// must yield lower IPC on the same instruction stream.
	tr := genTrace(t, "505.mcf", 40_000)
	good := New(TableIVConfig(), baselineModel(core.DirTAGE64)).Run(tr)
	// A deliberately bad predictor: flush on every context switch AND
	// kernel entry with a halved BTB (ucode-1 semantics).
	bad := New(TableIVConfig(), sim.New(sim.KindUcode1, sim.Options{})).Run(tr)
	if good.Branch.Mispredicts >= bad.Branch.Mispredicts {
		t.Skipf("flushing model did not mispredict more on this trace (%d vs %d)",
			good.Branch.Mispredicts, bad.Branch.Mispredicts)
	}
	if good.IPC() <= bad.IPC() {
		t.Errorf("better prediction should raise IPC: good %.3f bad %.3f", good.IPC(), bad.IPC())
	}
}

func TestIdenticalStreamAcrossModels(t *testing.T) {
	// ST and unprotected runs must see the same instruction counts —
	// otherwise IPC comparisons are meaningless.
	tr := genTrace(t, "525.x264", 20_000)
	a := New(TableIVConfig(), baselineModel(core.DirSKLCond)).Run(tr)
	b := New(TableIVConfig(), stModel(core.DirSKLCond)).Run(tr)
	if a.Instructions != b.Instructions {
		t.Errorf("instruction streams diverged: %d vs %d", a.Instructions, b.Instructions)
	}
}

func TestSTIPCWithinFourPercent(t *testing.T) {
	// Fig. 4 claim: <4% average IPC reduction for ST models.
	tr := genTrace(t, "549.fotonik3d", 40_000)
	base := New(TableIVConfig(), baselineModel(core.DirTAGE8)).Run(tr)
	st := New(TableIVConfig(), stModel(core.DirTAGE8)).Run(tr)
	norm := st.IPC() / base.IPC()
	if norm < 0.93 {
		t.Errorf("ST_TAGE8 normalized IPC %.3f, want >= 0.93", norm)
	}
}

func TestSMTSharedCore(t *testing.T) {
	a := genTrace(t, "503.bwaves", 20_000)
	b := genTrace(t, "541.leela", 20_000)
	c := New(TableIVConfig(), baselineModel(core.DirTAGE8))
	res := c.RunSMT(a, b)
	if res.PerThread[0].Instructions == 0 || res.PerThread[1].Instructions == 0 {
		t.Fatal("SMT thread starved")
	}
	if res.PerThread[0].Cycles != res.PerThread[1].Cycles {
		t.Error("SMT threads must share the cycle clock")
	}
	hm := res.HarmonicMeanIPC()
	if hm <= 0 || math.IsInf(hm, 0) {
		t.Errorf("harmonic mean IPC = %v", hm)
	}
	// Co-running halves per-thread throughput versus solo, roughly.
	solo := New(TableIVConfig(), baselineModel(core.DirTAGE8)).Run(a)
	if res.PerThread[0].IPC() > solo.IPC() {
		t.Error("SMT thread exceeded solo IPC on a shared core")
	}
}

func TestSMTThreadsAreDistinctEntities(t *testing.T) {
	// With STBPU, the two SMT threads must receive different tokens even
	// when their traces carry overlapping PIDs.
	a := genTrace(t, "503.bwaves", 5_000)
	c := New(TableIVConfig(), stModel(core.DirSKLCond))
	res := c.RunSMT(a, a) // same trace on both threads
	if res.PerThread[0].Branch.Mispredicts == 0 {
		t.Error("no branch activity recorded")
	}
}

func TestSMTMoreRerandomizations(t *testing.T) {
	// §VII-B2: SMT mode triggers more frequent re-randomizations because
	// two threads share the monitored structures. Compare ST_SKLCond
	// re-randomizations: SMT co-run vs the two workloads run solo.
	a := genTrace(t, "505.mcf", 30_000)
	b := genTrace(t, "531.deepsjeng", 30_000)

	solo1 := core.NewModel(core.ModelConfig{Dir: core.DirSKLCond})
	New(TableIVConfig(), &sim.STBPUModel{Inner: solo1}).Run(a)
	solo2 := core.NewModel(core.ModelConfig{Dir: core.DirSKLCond})
	New(TableIVConfig(), &sim.STBPUModel{Inner: solo2}).Run(b)

	smt := core.NewModel(core.ModelConfig{Dir: core.DirSKLCond})
	New(TableIVConfig(), &sim.STBPUModel{Inner: smt}).RunSMT(a, b)

	soloTotal := solo1.Rerandomizations() + solo2.Rerandomizations()
	if smt.Rerandomizations() < soloTotal {
		t.Logf("SMT rerands %d vs solo total %d (informational: depends on interleaving)",
			smt.Rerandomizations(), soloTotal)
	}
}

func BenchmarkCoreRun(b *testing.B) {
	tr := genTrace(b, "505.mcf", 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(TableIVConfig(), baselineModel(core.DirSKLCond)).Run(tr)
	}
}

func BenchmarkTimeline(b *testing.B) {
	tr := trace.FromTrace(genTrace(b, "505.mcf", 50_000))
	cfg := TableIVConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewTimeline(context.Background(), cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTimeline(b *testing.B) {
	tr := trace.FromTrace(genTrace(b, "505.mcf", 50_000))
	cfg := TableIVConfig()
	tl, err := NewTimeline(context.Background(), cfg, tr)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, baselineModel(core.DirSKLCond)).RunTimelineCtx(context.Background(), tl, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSMTTimeline times one SMT replay of a 2×25k pair: the
// per-row round-robin stepping Figs. 5 and 6 spend most of their time in.
func BenchmarkRunSMTTimeline(b *testing.B) {
	a := trace.FromTrace(genTrace(b, "505.mcf", 25_000))
	c := trace.FromTrace(genTrace(b, "531.deepsjeng", 25_000))
	cfg := TableIVConfig()
	tl, err := NewSMTTimeline(context.Background(), cfg, a, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, stModel(core.DirTAGE64)).RunSMTTimelineCtx(context.Background(), tl, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestConfigForWorkloads(t *testing.T) {
	generic := TableIVConfig()
	mcf := ConfigFor("mcf")
	if mcf.DataFootprint <= generic.DataFootprint {
		t.Error("mcf should have a large memory footprint")
	}
	if mcf != ConfigFor("505.mcf") {
		t.Error("short and full names should resolve identically")
	}
	lbm := ConfigFor("519.lbm")
	if lbm.InstrPerBranch <= mcf.InstrPerBranch {
		t.Error("FP streaming code should have longer basic blocks than mcf")
	}
	server := ConfigFor("mysql_128con_50s")
	if server.DataFootprint == generic.DataFootprint {
		t.Error("server workloads should get the server footprint")
	}
	if unknown := ConfigFor("no-such-workload"); unknown != generic {
		t.Error("unknown workloads should keep Table IV defaults")
	}
	// Core parameters are never altered by workload specialization.
	if mcf.Width != generic.Width || mcf.ROB != generic.ROB {
		t.Error("workload params must not change core geometry")
	}
}

func TestMemoryBoundWorkloadHasLowerIPC(t *testing.T) {
	trM := genTrace(t, "505.mcf", 20_000)
	trX := genTrace(t, "548.exchange2", 20_000)
	mcf := New(ConfigFor("505.mcf"), baselineModel(core.DirTAGE64)).Run(trM)
	exch := New(ConfigFor("548.exchange2"), baselineModel(core.DirTAGE64)).Run(trX)
	if mcf.IPC() >= exch.IPC() {
		t.Errorf("mcf IPC %.3f should be below exchange2 %.3f (memory-bound)", mcf.IPC(), exch.IPC())
	}
}
