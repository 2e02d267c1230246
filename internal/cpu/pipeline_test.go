package cpu

import (
	"testing"

	"stbpu/internal/core"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

func pipelineTrace(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	prof, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(prof.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newPipeline(t testing.TB, cfg PipelineConfig) *PipelineCore {
	t.Helper()
	p, err := NewPipeline(cfg, &sim.UnitModel{
		ModelName: "baseline",
		Unit:      core.NewUnprotectedUnit(core.DirSKLCond),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPipelineConfigValidate(t *testing.T) {
	if err := DefaultPipelineConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultPipelineConfig()
	bad.ROB = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ROB accepted")
	}
	bad = DefaultPipelineConfig()
	bad.FetchQueue = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero fetch queue accepted")
	}
	bad = DefaultPipelineConfig()
	bad.LoadPorts = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero load ports accepted")
	}
	if _, err := NewPipeline(bad, nil); err == nil {
		t.Error("NewPipeline accepted an invalid config")
	}
}

func TestPipelineIPCBounds(t *testing.T) {
	tr := pipelineTrace(t, "505.mcf", 10_000)
	p := newPipeline(t, DefaultPipelineConfig())
	st := p.Run(tr)
	if st.Instructions == 0 || st.Cycles == 0 {
		t.Fatalf("empty run: %+v", st)
	}
	if ipc := st.IPC(); ipc <= 0 || ipc > float64(DefaultPipelineConfig().Width) {
		t.Errorf("IPC = %.2f, want in (0, width]", ipc)
	}
}

func TestPipelineDeterminism(t *testing.T) {
	tr := pipelineTrace(t, "541.leela", 5_000)
	a := newPipeline(t, DefaultPipelineConfig()).Run(tr)
	b := newPipeline(t, DefaultPipelineConfig()).Run(tr)
	if a != b {
		t.Errorf("two identical runs disagree:\n%+v\n%+v", a, b)
	}
}

func TestPipelineROBBoundsILP(t *testing.T) {
	tr := pipelineTrace(t, "505.mcf", 8_000)
	big := DefaultPipelineConfig()
	small := DefaultPipelineConfig()
	small.ROB = 8
	small.IQ = 8
	ipcBig := newPipeline(t, big).Run(tr).IPC()
	ipcSmall := newPipeline(t, small).Run(tr).IPC()
	if ipcSmall >= ipcBig {
		t.Errorf("ROB 8 IPC %.3f >= ROB 192 IPC %.3f; structural stalls not modeled", ipcSmall, ipcBig)
	}
}

func TestPipelineLQPressure(t *testing.T) {
	tr := pipelineTrace(t, "505.mcf", 8_000)
	cfg := DefaultPipelineConfig()
	cfg.LoadFrac = 0.6
	tight := cfg
	tight.LQ = 2
	ipcWide := newPipeline(t, cfg).Run(tr).IPC()
	ipcTight := newPipeline(t, tight).Run(tr).IPC()
	if ipcTight >= ipcWide {
		t.Errorf("LQ 2 IPC %.3f >= LQ 32 IPC %.3f; LQ occupancy not modeled", ipcTight, ipcWide)
	}
}

func TestPipelinePortContention(t *testing.T) {
	tr := pipelineTrace(t, "505.mcf", 8_000)
	wide := DefaultPipelineConfig()
	narrow := DefaultPipelineConfig()
	narrow.ALUPorts = 1
	narrow.LoadPorts = 1
	ipcWide := newPipeline(t, wide).Run(tr).IPC()
	ipcNarrow := newPipeline(t, narrow).Run(tr).IPC()
	if ipcNarrow >= ipcWide {
		t.Errorf("1-port IPC %.3f >= 4-port IPC %.3f; FU contention not modeled", ipcNarrow, ipcWide)
	}
}

func TestPipelineMispredictionsCostCycles(t *testing.T) {
	// A highly predictable workload must beat a hard-to-predict one on
	// the same core, and the squash accounting must be populated.
	easy := pipelineTrace(t, "519.lbm", 8_000) // highly biased preset
	hard := pipelineTrace(t, "505.mcf", 8_000) // hard-to-predict preset
	stEasy := newPipeline(t, DefaultPipelineConfig()).Run(easy)
	stHard := newPipeline(t, DefaultPipelineConfig()).Run(hard)
	if stHard.Squashes == 0 {
		t.Fatal("no squashes recorded on a branchy workload")
	}
	if stEasy.IPC() <= stHard.IPC() {
		t.Errorf("easy IPC %.3f <= hard IPC %.3f", stEasy.IPC(), stHard.IPC())
	}
	if stHard.MeanResolveLatency() <= 0 {
		t.Error("resolve latency not measured")
	}
	if stHard.FetchStallCycles == 0 {
		t.Error("misprediction fetch stalls not accounted")
	}
}

func TestPipelineResolveLatencyGrowsWithDependencyDepth(t *testing.T) {
	// Deep dependency chains delay branch resolution — the emergent
	// penalty the fixed-cost interval model cannot express.
	tr := pipelineTrace(t, "531.deepsjeng", 8_000)
	shallow := DefaultPipelineConfig()
	shallow.DepChance4 = 0
	deep := DefaultPipelineConfig()
	deep.DepChance4 = 4
	latShallow := newPipeline(t, shallow).Run(tr).MeanResolveLatency()
	latDeep := newPipeline(t, deep).Run(tr).MeanResolveLatency()
	if latDeep <= latShallow {
		t.Errorf("deep-chain resolve latency %.2f <= shallow %.2f", latDeep, latShallow)
	}
}

func TestPipelineSMTSharesTheCore(t *testing.T) {
	a := pipelineTrace(t, "505.mcf", 5_000)
	b := pipelineTrace(t, "541.leela", 5_000)
	p := newPipeline(t, DefaultPipelineConfig())
	st := p.RunSMT(a, b)
	if st[0].Cycles != st[1].Cycles {
		t.Fatal("SMT threads must share the cycle count")
	}
	if st[0].Instructions == 0 || st[1].Instructions == 0 {
		t.Fatal("a thread retired nothing")
	}
	// Co-running must not exceed single-thread combined throughput on a
	// shared 8-wide core; each thread must also run slower than alone.
	alone := newPipeline(t, DefaultPipelineConfig()).Run(a)
	if st[0].IPC() > alone.IPC()*1.05 {
		t.Errorf("thread 0 SMT IPC %.3f exceeds solo IPC %.3f", st[0].IPC(), alone.IPC())
	}
}

func TestPipelineFetchPolicies(t *testing.T) {
	// ICOUNT should not lose to round-robin on an asymmetric pair: it
	// steers fetch away from the stalled (miss-heavy) thread.
	a := pipelineTrace(t, "505.mcf", 5_000) // miss-heavy
	b := pipelineTrace(t, "519.lbm", 5_000) // clean
	total := func(policy FetchPolicy) float64 {
		p := newPipeline(t, DefaultPipelineConfig())
		p.SetFetchPolicy(policy)
		st := p.RunSMT(a, b)
		return st[0].IPC() + st[1].IPC()
	}
	rr := total(PolicyRoundRobin)
	ic := total(PolicyICount)
	if ic < rr*0.95 {
		t.Errorf("ICOUNT throughput %.3f markedly below round-robin %.3f", ic, rr)
	}
	if PolicyICount.String() != "icount" || PolicyRoundRobin.String() != "round-robin" {
		t.Error("FetchPolicy names wrong")
	}
}

func TestPipelineAgreesWithIntervalModel(t *testing.T) {
	// Cross-validation: the two engines must rank workloads the same way
	// and produce IPCs within a small factor of each other.
	for _, name := range []string{"519.lbm", "505.mcf"} {
		tr := pipelineTrace(t, name, 8_000)
		pipe := newPipeline(t, DefaultPipelineConfig()).Run(tr)
		interval := New(TableIVConfig(), &sim.UnitModel{
			ModelName: "baseline",
			Unit:      core.NewUnprotectedUnit(core.DirSKLCond),
		}).Run(tr)
		ratio := pipe.IPC() / interval.IPC()
		if ratio < 0.3 || ratio > 3 {
			t.Errorf("%s: pipeline IPC %.3f vs interval IPC %.3f (ratio %.2f)",
				name, pipe.IPC(), interval.IPC(), ratio)
		}
	}
}

func TestPipelineBranchAccounting(t *testing.T) {
	tr := pipelineTrace(t, "505.mcf", 5_000)
	p := newPipeline(t, DefaultPipelineConfig())
	p.Run(tr)
	br := p.BranchResult(0)
	if br.Conds == 0 || br.Mispredicts == 0 {
		t.Fatalf("branch accounting empty: %+v", br)
	}
	if br.Model != "baseline" {
		t.Errorf("model name = %q", br.Model)
	}
}

func BenchmarkPipelineEngine(b *testing.B) {
	tr := pipelineTrace(b, "505.mcf", 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newPipeline(b, DefaultPipelineConfig()).Run(tr)
		b.ReportMetric(st.IPC(), "ipc")
	}
	b.SetBytes(int64(len(tr.Records)))
}

func TestPipelineInstructionConservation(t *testing.T) {
	// Every µop the stream produces must retire exactly once: the
	// pipeline may stall and squash, but this trace-driven model never
	// drops or duplicates correct-path work.
	tr := pipelineTrace(t, "505.mcf", 6_000)
	cfg := DefaultPipelineConfig()
	p := newPipeline(t, cfg)
	st := p.Run(tr)

	var want uint64
	for i, rec := range tr.Records {
		h := recHash(rec.PC, rec.Target, i)
		block := 1 + int(h%uint64(2*cfg.InstrPerBranch))
		want += uint64(block) + 1
	}
	if st.Instructions != want {
		t.Errorf("retired %d instructions, stream produced %d", st.Instructions, want)
	}
}

func TestPipelineSMTDeterminism(t *testing.T) {
	a := pipelineTrace(t, "505.mcf", 4_000)
	b := pipelineTrace(t, "541.leela", 4_000)
	r1 := newPipeline(t, DefaultPipelineConfig()).RunSMT(a, b)
	r2 := newPipeline(t, DefaultPipelineConfig()).RunSMT(a, b)
	if r1 != r2 {
		t.Errorf("SMT runs diverge:\n%+v\n%+v", r1, r2)
	}
}

func TestPipelineSMTConservation(t *testing.T) {
	a := pipelineTrace(t, "505.mcf", 4_000)
	b := pipelineTrace(t, "541.leela", 4_000)
	cfg := DefaultPipelineConfig()
	st := newPipeline(t, cfg).RunSMT(a, b)
	count := func(tr0 *trace.Trace, thread int) uint64 {
		var want uint64
		for i, rec := range tr0.Records {
			if thread == 1 {
				rec.PID += 1 << 16
				rec.Program += 1 << 12
			}
			h := recHash(rec.PC, rec.Target, i)
			want += 1 + uint64(1+int(h%uint64(2*cfg.InstrPerBranch)))
		}
		return want
	}
	if st[0].Instructions != count(a, 0) {
		t.Errorf("thread 0 retired %d, want %d", st[0].Instructions, count(a, 0))
	}
	if st[1].Instructions != count(b, 1) {
		t.Errorf("thread 1 retired %d, want %d", st[1].Instructions, count(b, 1))
	}
}
