package remap_test

import (
	"math"
	"testing"

	"stbpu/internal/core"
	"stbpu/internal/remap"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// TestBackendsAgreeOnAccuracy keeps the two remap backends
// interchangeable (§V): the simulator defaults to the Mixer, and the
// generated circuits it stands in for must predict a switch-heavy
// workload within half a point of OAE under the same tokens.
func TestBackendsAgreeOnAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a trace through the generated circuits")
	}
	set, err := remap.DefaultCircuitSet()
	if err != nil {
		t.Fatal(err)
	}
	prof, err := trace.Preset("mysql_128con_50s")
	if err != nil {
		t.Fatal(err)
	}
	cols, err := trace.GenerateColumns(prof.WithRecords(20_000))
	if err != nil {
		t.Fatal(err)
	}
	oae := func(dir core.DirKind, funcs remap.Funcs) float64 {
		m := core.NewModel(core.ModelConfig{
			Dir: dir, Funcs: funcs, SharedTokens: prof.SharedTokens, Seed: 3})
		return sim.RunColumns(m, cols).OAE()
	}
	for _, dir := range []core.DirKind{core.DirSKLCond, core.DirTAGE8} {
		mixer, circuit := oae(dir, nil), oae(dir, set)
		t.Logf("%s: OAE mixer %.4f, circuit %.4f", dir, mixer, circuit)
		if d := math.Abs(circuit - mixer); d > 0.005 {
			t.Errorf("%s: OAE circuit %.4f vs mixer %.4f differ by %.4f, want <= 0.005", dir, circuit, mixer, d)
		}
	}
}
