package experiments

import (
	"context"
	"strings"
	"testing"

	"stbpu/internal/harness"
)

// runScenario runs one registered scenario through harness.RunAll with
// params p and returns its typed result. A nil pool runs it on a fresh
// GOMAXPROCS-wide pool with the default root seed.
func runScenario[R any](pool *harness.Pool, name string, p harness.Params) (R, error) {
	if pool == nil {
		pool = harness.NewPool(0, harness.DefaultRootSeed)
	}
	reports, err := harness.RunAll(context.Background(), pool, harness.Options{Filters: []string{name}, Params: p})
	if err != nil {
		var zero R
		return zero, err
	}
	return reports[0].Result.(R), nil
}

// TestFig3CappedShape is the short-mode stand-in for the full-list shape
// tests below: a capped workload set keeps `go test -race -short` fast
// while still exercising the harness path end to end.
func TestFig3CappedShape(t *testing.T) {
	res, err := runScenario[Fig3Result](nil, "fig3", Scale{Records: 25_000, MaxWorkloads: 6}.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("Fig3 rows = %d, want 6", len(res.Rows))
	}
	if res.AvgNormalized[0] != 1.0 {
		t.Errorf("baseline normalization broken: %v", res.AvgNormalized[0])
	}
	if st := res.AvgNormalized[4]; st < 0.95 {
		t.Errorf("STBPU average normalized OAE %.3f on capped set, want >= 0.95", st)
	}
}

func TestFig3QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 37-workload sweep; TestFig3CappedShape covers the short path")
	}
	res, err := runScenario[Fig3Result](nil, "fig3", Scale{Records: 40_000, MaxWorkloads: 0}.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("Fig3 rows = %d, want 37", len(res.Rows))
	}
	base, u1, u2, cons, st := res.AvgNormalized[0], res.AvgNormalized[1],
		res.AvgNormalized[2], res.AvgNormalized[3], res.AvgNormalized[4]
	if base != 1.0 {
		t.Errorf("baseline normalization broken: %v", base)
	}
	// Paper shape: µcode-1 (0.77) < µcode-2 (0.82) < conservative (0.88)
	// < STBPU (0.99). We assert the ordering and the headline bounds.
	if !(u1 <= u2+0.01 && u2 < cons && cons < st) {
		t.Errorf("model ordering broken: u1=%.3f u2=%.3f cons=%.3f stbpu=%.3f", u1, u2, cons, st)
	}
	if st < 0.97 {
		t.Errorf("STBPU average normalized OAE %.3f, paper says ~0.99", st)
	}
	if u2 > 0.93 {
		t.Errorf("µcode-2 average %.3f; flushing should cost ≥7%%", u2)
	}
	if cons > 0.985 {
		t.Errorf("conservative average %.3f; capacity loss should show", cons)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "AVG") {
		t.Error("render missing average row")
	}
}

func TestFig3ServerWorkloadsHurtMost(t *testing.T) {
	if testing.Short() {
		t.Skip("full 37-workload sweep; needs the server/SPEC split")
	}
	res, err := runScenario[Fig3Result](nil, "fig3", Scale{Records: 40_000}.Params())
	if err != nil {
		t.Fatal(err)
	}
	var specLoss, serverLoss []float64
	for _, row := range res.Rows {
		loss := 1 - row.Normalized[2] // µcode-2
		if strings.HasPrefix(row.Workload, "5") {
			specLoss = append(specLoss, loss)
		} else {
			serverLoss = append(serverLoss, loss)
		}
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(serverLoss) < avg(specLoss) {
		t.Errorf("flushing should hurt servers more: server loss %.3f vs spec %.3f",
			avg(serverLoss), avg(specLoss))
	}
}

func TestFig4Quick(t *testing.T) {
	res, err := runScenario[Fig4Result](nil, "fig4", Scale{Records: 30_000, MaxWorkloads: 4}.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for d, avg := range res.Avg {
		if avg.DirReduction > 0.03 {
			t.Errorf("predictor %d: direction reduction %.4f too large (paper ≤0.013)", d, avg.DirReduction)
		}
		if avg.TgtReduction > 0.04 {
			t.Errorf("predictor %d: target reduction %.4f too large (paper ≤0.02)", d, avg.TgtReduction)
		}
		if avg.NormIPC < 0.93 {
			t.Errorf("predictor %d: normalized IPC %.3f (paper ≥0.96 avg)", d, avg.NormIPC)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "AVG") {
		t.Error("render missing average row")
	}
}

func TestFig5Quick(t *testing.T) {
	res, err := runScenario[Fig5Result](nil, "fig5", Scale{Records: 25_000, MaxPairs: 3}.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for d, avg := range res.Avg {
		if avg.NormIPC < 0.90 {
			t.Errorf("predictor %d: SMT normalized IPC %.3f (paper ≥0.95)", d, avg.NormIPC)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if len(sb.String()) == 0 {
		t.Error("empty render")
	}
}

func TestFig6SweepShape(t *testing.T) {
	res, err := runScenario[Fig6Result](nil, "fig6", harness.Params{Records: 25_000, MaxPairs: 2, Sweep: []float64{5e-2, 5e-4, 2e-6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Paper shape: accuracy stays >95% of nominal for moderate r, then
	// collapses when re-randomization fires every few hundred events.
	if res.Points[0].Accuracy < 0.8 {
		t.Errorf("operating-point accuracy %.3f too low", res.Points[0].Accuracy)
	}
	if res.Points[2].Accuracy >= res.Points[0].Accuracy {
		t.Errorf("extreme r should cost accuracy: %.3f vs %.3f",
			res.Points[2].Accuracy, res.Points[0].Accuracy)
	}
	if res.Points[2].Rerands <= res.Points[0].Rerands {
		t.Error("smaller r must re-randomize more often")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "rerandomizations") {
		t.Error("render missing header")
	}
}

func TestThresholdReport(t *testing.T) {
	rep := RunThresholds(0.05)
	if len(rep.Complexities) != 5 {
		t.Fatalf("complexity rows = %d", len(rep.Complexities))
	}
	if rep.MispThresh < 4.1e4 || rep.MispThresh > 4.2e4 {
		t.Errorf("misp threshold %.4g, want ≈4.15e4", rep.MispThresh)
	}
	if rep.EvictThresh < 2.6e4 || rep.EvictThresh > 2.7e4 {
		t.Errorf("evict threshold %.4g, want ≈2.65e4", rep.EvictThresh)
	}
	var sb strings.Builder
	rep.Render(&sb)
	if !strings.Contains(sb.String(), "thresholds at r=0.05") {
		t.Error("render missing thresholds line")
	}
}

func TestScales(t *testing.T) {
	if QuickScale().Records <= 0 || FullScale().Records <= QuickScale().Records {
		t.Error("scale presets inconsistent")
	}
}

func TestDefenseAccuracyComparison(t *testing.T) {
	s := QuickScale()
	s.MaxWorkloads = 4
	res, err := runScenario[DefenseAccuracyResult](nil, "defense-accuracy", s.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Models) != 6 {
		t.Fatalf("unexpected shape: %d rows, %d models", len(res.Rows), len(res.Models))
	}
	// STBPU (last column) must retain accuracy: ≥ 0.95 of baseline on
	// average, and it must beat Zhao (whose regenerated masks forfeit
	// retained history on switch-heavy workloads).
	stbpu := res.AvgNormalized[len(res.Models)-1]
	if stbpu < 0.95 {
		t.Errorf("STBPU avg normalized OAE = %.3f, want >= 0.95", stbpu)
	}
	var zhao float64
	for i, m := range res.Models {
		if m == "Zhao-DAC21" {
			zhao = res.AvgNormalized[i]
		}
	}
	if stbpu < zhao {
		t.Errorf("STBPU (%.3f) should retain at least as much accuracy as Zhao (%.3f)", stbpu, zhao)
	}
}

func TestDefenseMatrixShape(t *testing.T) {
	res, err := runScenario[DefenseMatrixResult](nil, "defense-matrix", harness.Params{Trials: matrixRuns})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BaselineOpenToAll() {
		t.Error("baseline should be open to every attack class")
	}
	if !res.STBPUStopsAll() {
		t.Error("STBPU should stop every attack class within the budget")
	}
	// Every related-work defense must leave at least one class open —
	// the §VIII argument for why STBPU is needed.
	for m := 1; m < len(res.Models)-1; m++ {
		open := false
		for a := range res.Attacks {
			if res.Cells[a][m].Succeeded {
				open = true
				break
			}
		}
		if !open {
			t.Errorf("%s unexpectedly stops every attack class", res.Models[m])
		}
	}
}

func TestCovertComparisonShape(t *testing.T) {
	res, err := runScenario[CovertResult](nil, "covert", harness.Params{Bits: 128, Trials: matrixRuns})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	base, ok := res.Row("baseline")
	if !ok {
		t.Fatal("missing baseline row")
	}
	if base.Capacity < 0.7 {
		t.Errorf("baseline covert capacity = %.3f, want >= 0.7 bits/symbol", base.Capacity)
	}
	st, ok := res.Row("STBPU")
	if !ok {
		t.Fatal("missing STBPU row")
	}
	if st.Capacity > 0.2 {
		t.Errorf("STBPU covert capacity = %.3f, want <= 0.2 bits/symbol", st.Capacity)
	}
	// Exynos leaves the PHT untouched: the channel must remain usable.
	ex, _ := res.Row("Exynos-XOR")
	if ex.Capacity < 0.5 {
		t.Errorf("Exynos covert capacity = %.3f, want >= 0.5 (PHT unprotected)", ex.Capacity)
	}
	// BRB retains the PHT per process: the channel must collapse.
	brb, _ := res.Row("BRB")
	if brb.Capacity > 0.2 {
		t.Errorf("BRB covert capacity = %.3f, want <= 0.2 (per-process PHT)", brb.Capacity)
	}
}

func TestITTAGEExtension(t *testing.T) {
	s := QuickScale()
	s.MaxWorkloads = 4
	res, err := runScenario[ITTAGEResult](nil, "ittage", s.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if !res.ITTAGEHelps() {
		t.Errorf("ITTAGE did not improve target rate: %v", res.AvgTargetRate)
	}
	if !res.ProtectionKeepsGain(0.02) {
		t.Errorf("ST protection costs more than 2pp of ITTAGE's gain: %v", res.AvgTargetRate)
	}
}

func TestWarmupCurve(t *testing.T) {
	res, err := runScenario[WarmupResult](nil, "warmup", harness.Params{Workload: "mysql_128con_50s", Sweep: []float64{10_000, 40_000, 120_000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.FlushPenaltyGrows(0.02) {
		t.Errorf("flush penalty does not deepen with warm state: %+v", res.Points)
	}
}
