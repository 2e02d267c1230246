package stbpu

// Cross-module integration tests: end-to-end flows a downstream user would
// exercise, spanning trace synthesis → codec → models → CPU → attacks.

import (
	"bytes"
	"context"
	"testing"

	"stbpu/internal/core"
	"stbpu/internal/cpu"
	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

func TestEndToEndTraceCodecSimulation(t *testing.T) {
	// Generate → serialize → deserialize → simulate must be identical to
	// simulating the original trace.
	tr, err := GenerateWorkload("520.omnetpp", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Simulate(NewProtected(Config{Predictor: SKLCond, Seed: 4}), tr)
	b := Simulate(NewProtected(Config{Predictor: SKLCond, Seed: 4}), decoded)
	if a.Mispredicts != b.Mispredicts || a.Evictions != b.Evictions {
		t.Errorf("codec round-trip changed simulation results: %+v vs %+v", a, b)
	}
}

func TestEndToEndCPUPipeline(t *testing.T) {
	// Trace → protected BPU → OoO core must produce consistent branch
	// accounting between the sim layer and the CPU layer.
	tr, err := GenerateWorkload("541.leela", 15_000)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(core.ModelConfig{Dir: core.DirTAGE8, Seed: 6})
	res := cpu.New(cpu.ConfigFor("541.leela"), m).Run(tr)
	if res.Branch.Records != len(tr.Records) {
		t.Errorf("CPU branch accounting lost records: %d vs %d", res.Branch.Records, len(tr.Records))
	}
	if res.IPC() <= 0 {
		t.Errorf("IPC = %v", res.IPC())
	}
}

func TestTableIHolds(t *testing.T) {
	// The paper's end-to-end security claim, executable: every
	// deterministic baseline attack loses determinism under STBPU.
	reports, err := harness.RunAll(context.Background(), harness.NewPool(0, harness.DefaultRootSeed), harness.Options{
		Filters: []string{"tablei"},
		Params:  harness.Params{Budget: 5_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := reports[0].Result.(experiments.TableIResult)
	if len(res.Rows) < 10 {
		t.Fatalf("Table I has %d rows", len(res.Rows))
	}
	baselineWins := 0
	for _, row := range res.Rows {
		if row.Baseline.Succeeded {
			baselineWins++
		}
	}
	if baselineWins < 8 {
		t.Errorf("only %d baseline attacks succeed; drivers degraded", baselineWins)
	}
	if !res.Holds() {
		var sb bytes.Buffer
		res.Render(&sb)
		t.Errorf("STBPU security claim violated:\n%s", sb.String())
	}
}

func TestAllWorkloadsThroughAllModels(t *testing.T) {
	// Smoke coverage: every preset workload runs through every protection
	// model without panics and with sane OAE.
	if testing.Short() {
		t.Skip("wide sweep")
	}
	for _, name := range trace.Fig3Workloads() {
		p, err := trace.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Generate(p.WithRecords(8_000))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range sim.Fig3Kinds() {
			res := sim.Run(sim.New(kind, sim.Options{SharedTokens: p.SharedTokens}), tr)
			if oae := res.OAE(); oae < 0.4 || oae > 1 {
				t.Errorf("%s/%s: OAE %.3f out of range", name, kind, oae)
			}
		}
	}
}
