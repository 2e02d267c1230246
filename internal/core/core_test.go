package core

import (
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// runModel drives a model over a trace, returning 1 - mispredict rate.
func runModel(m *Model, recs []trace.Record) float64 {
	misp := 0
	for _, rec := range recs {
		if _, ev := m.Step(rec); ev.Mispredict {
			misp++
		}
	}
	return 1 - float64(misp)/float64(len(recs))
}

// runUnit drives a bare unit the same way.
func runUnit(u *bpu.Unit, recs []trace.Record) float64 {
	misp := 0
	for _, rec := range recs {
		pred := u.Predict(rec.PC, rec.Kind)
		if ev := u.Update(rec, pred); ev.Mispredict {
			misp++
		}
	}
	return 1 - float64(misp)/float64(len(recs))
}

func genTrace(t *testing.T, name string, n int) *trace.Trace {
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

func TestDirKindString(t *testing.T) {
	want := map[DirKind]string{
		DirSKLCond:    "SKLCond",
		DirTAGE8:      "TAGE_SC_L_8KB",
		DirTAGE64:     "TAGE_SC_L_64KB",
		DirPerceptron: "PerceptronBP",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	m := NewModel(ModelConfig{Dir: DirTAGE64})
	if m.Name() != "ST_TAGE_SC_L_64KB" {
		t.Errorf("model name %q", m.Name())
	}
}

func TestSTAccuracyNearUnprotected(t *testing.T) {
	// The paper's core performance claim: ST models lose ~1-2% accuracy
	// versus their unprotected twins (Figs. 3-4).
	tr := genTrace(t, "519.lbm", 80_000)
	for _, dir := range []DirKind{DirSKLCond, DirTAGE8, DirPerceptron} {
		st := NewModel(ModelConfig{Dir: dir})
		base := NewUnprotectedUnit(dir)
		stAcc := runModel(st, tr.Records)
		baseAcc := runUnit(base, tr.Records)
		if stAcc < baseAcc-0.03 {
			t.Errorf("%v: ST accuracy %.3f vs unprotected %.3f (gap > 3pp)", dir, stAcc, baseAcc)
		}
	}
}

func TestTokensIsolateEntities(t *testing.T) {
	// Two entities executing the same code must not share predictor
	// state: identical addresses map to different entries under distinct
	// tokens. We verify via the BTB: train PID 1 on a jump, then the same
	// jump from PID 2 must miss.
	m := NewModel(ModelConfig{Dir: DirSKLCond})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1}
	m.Step(rec) // trains entity 1
	pred, _ := m.Step(rec)
	if !pred.TargetValid {
		t.Fatal("entity 1 should hit its own entry")
	}
	rec2 := rec
	rec2.PID = 2
	pred, _ = m.Step(rec2)
	if pred.TargetValid && pred.Target == rec.Target {
		t.Error("entity 2 reused entity 1's BTB entry: tokens do not isolate")
	}
}

func TestSharedTokensAllowReuse(t *testing.T) {
	// With OS-level token sharing (prefork servers), same-program
	// processes share BPU state deliberately.
	m := NewModel(ModelConfig{Dir: DirSKLCond, SharedTokens: true})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1, Program: 7}
	m.Step(rec)
	rec2 := rec
	rec2.PID = 2 // same Program
	pred, _ := m.Step(rec2)
	if !pred.TargetValid || pred.Target != rec.Target {
		t.Error("shared-token processes should reuse history")
	}
}

func TestKernelIsSeparateEntity(t *testing.T) {
	m := NewModel(ModelConfig{Dir: DirSKLCond})
	user := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1}
	kern := user
	kern.Kernel = true
	if EntityKey(user, false) == EntityKey(kern, false) {
		t.Fatal("kernel and user share an entity key")
	}
	m.Step(user)
	pred, _ := m.Step(kern)
	if pred.TargetValid && pred.Target == user.Target {
		t.Error("kernel reused user BTB state")
	}
}

func TestRerandomizationOnThreshold(t *testing.T) {
	th := token.Thresholds{Mispredictions: 50, Evictions: 1 << 40}
	m := NewModel(ModelConfig{Dir: DirSKLCond, Thresholds: &th})
	before := func() token.ST {
		// Force token load for entity 1.
		m.Step(trace.Record{PC: 0x1000, Kind: trace.KindCond, Taken: false, Target: 0x1004, PID: 1})
		return m.CurrentToken()
	}()
	// Hard-to-predict stream drives mispredictions past the threshold.
	for i := 0; i < 400; i++ {
		taken := i%2 == 0 && i%3 == 0
		rec := trace.Record{PC: uint64(0x2000 + (i%37)*16), Kind: trace.KindCond, Taken: taken, PID: 1}
		if taken {
			rec.Target = rec.PC + 64
		} else {
			rec.Target = rec.FallThrough()
		}
		m.Step(rec)
	}
	if m.Rerandomizations() == 0 {
		t.Fatal("no re-randomization despite misprediction storm")
	}
	if m.CurrentToken() == before {
		t.Error("token unchanged after re-randomization")
	}
}

func TestRerandomizationInvalidatesOwnHistory(t *testing.T) {
	m := NewModel(ModelConfig{Dir: DirSKLCond})
	rec := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1}
	m.Step(rec)
	if pred, _ := m.Step(rec); !pred.TargetValid {
		t.Fatal("warm entry should hit")
	}
	m.TokenManager().Rerandomize(EntityKey(rec, false))
	// Force a token reload by touching another entity first.
	m.Step(trace.Record{PC: 0x9000, Kind: trace.KindCond, Target: 0x9004, PID: 2})
	pred, _ := m.Step(rec)
	if pred.TargetValid && pred.Target == rec.Target {
		t.Error("re-randomization did not invalidate the entity's history")
	}
}

func TestRerandomizationPreservesOtherEntities(t *testing.T) {
	// The key difference from flushing (§IV-A): re-randomizing one
	// process's ST keeps other processes' history intact.
	m := NewModel(ModelConfig{Dir: DirSKLCond})
	rec1 := trace.Record{PC: 0x401000, Target: 0x401800, Kind: trace.KindDirectJump, Taken: true, PID: 1}
	rec2 := trace.Record{PC: 0x501000, Target: 0x501800, Kind: trace.KindDirectJump, Taken: true, PID: 2}
	m.Step(rec1)
	m.Step(rec2)
	m.TokenManager().Rerandomize(EntityKey(rec1, false))
	pred, _ := m.Step(rec2)
	if !pred.TargetValid || pred.Target != rec2.Target {
		t.Error("re-randomizing entity 1 destroyed entity 2's history")
	}
}

func TestTargetEncryptionDiffersAcrossTokens(t *testing.T) {
	// Directly check the φ-XOR property: the same stored word decrypts
	// differently under different tokens.
	a := &keyState{funcs: nil, phi: 0x1234_5678}
	b := &keyState{funcs: nil, phi: 0x9abc_def0}
	stored := a.EncryptTarget(0x00401800)
	if got := a.DecryptTarget(stored); got != 0x00401800 {
		t.Fatalf("self-decryption failed: %#x", got)
	}
	if got := b.DecryptTarget(stored); got == 0x00401800 {
		t.Error("cross-token decryption should yield garbage")
	}
}

func TestTageRegisterDefaultsByModel(t *testing.T) {
	tageModel := NewModel(ModelConfig{Dir: DirTAGE64})
	if tageModel.TokenManager().Thresholds().TageMispredictions == 0 {
		t.Error("TAGE model should default to a separate register")
	}
	skl := NewModel(ModelConfig{Dir: DirSKLCond})
	if skl.TokenManager().Thresholds().TageMispredictions != 0 {
		t.Error("SKLCond model should not have a TAGE register")
	}
}

func TestModelDeterminism(t *testing.T) {
	tr := genTrace(t, "505.mcf", 20_000)
	a := runModel(NewModel(ModelConfig{Dir: DirTAGE8, Seed: 5}), tr.Records)
	b := runModel(NewModel(ModelConfig{Dir: DirTAGE8, Seed: 5}), tr.Records)
	if a != b {
		t.Errorf("same seed, different accuracy: %v vs %v", a, b)
	}
}

func TestAggressiveThresholdsDegradeGracefully(t *testing.T) {
	// Fig. 6: extreme r keeps re-randomizing, destroying training, but
	// the model must still run and accuracy should drop, not collapse to
	// zero.
	tr := genTrace(t, "519.lbm", 40_000)
	tiny := token.Thresholds{Mispredictions: 20, Evictions: 20}
	aggressive := runModel(NewModel(ModelConfig{Dir: DirSKLCond, Thresholds: &tiny}), tr.Records)
	relaxed := runModel(NewModel(ModelConfig{Dir: DirSKLCond}), tr.Records)
	if aggressive >= relaxed {
		t.Errorf("aggressive thresholds should cost accuracy: %.3f vs %.3f", aggressive, relaxed)
	}
	if aggressive < 0.5 {
		t.Errorf("aggressive accuracy %.3f suspiciously low", aggressive)
	}
}

func BenchmarkSTModelStep(b *testing.B) {
	p, err := trace.Preset("505.mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(100_000))
	if err != nil {
		b.Fatal(err)
	}
	m := NewModel(ModelConfig{Dir: DirSKLCond})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Step(tr.Records[i%len(tr.Records)])
	}
}
