package experiments

// The ITTAGE extension experiment backs the paper's §IV claim that STBPU
// "can be applied to other branch predictor configurations and designs"
// for the *indirect* side: a dedicated ITTAGE target predictor is
// attached ahead of the BTB mode-two path, in unprotected (legacy-hashed)
// and ST-protected (ψ-keyed, φ-encrypted) variants. The reproduction
// claims: (1) ITTAGE improves target prediction on indirect-heavy
// workloads over the BTB-only baseline, and (2) the ST wrapper keeps that
// improvement — protection costs no more on ITTAGE than it does on the
// baseline structures.

import (
	"context"
	"io"

	"stbpu/internal/core"
	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
)

// ITTAGERow is one workload's four-way comparison.
type ITTAGERow struct {
	Workload string
	// TargetRate per variant: [0] BTB-only, [1] BTB+ITTAGE,
	// [2] ST BTB-only, [3] ST BTB+ITTAGE.
	TargetRate [4]float64
	// OAE per variant, same order.
	OAE [4]float64
}

// ITTAGEResult is the whole comparison.
type ITTAGEResult struct {
	Rows []ITTAGERow
	// AvgTargetRate and AvgOAE are per-variant means.
	AvgTargetRate, AvgOAE [4]float64
}

// ITTAGEVariants names the comparison columns.
func ITTAGEVariants() [4]string {
	return [4]string{"BTB-only", "BTB+ITTAGE", "ST_BTB-only", "ST_BTB+ITTAGE"}
}

// ittageWorkloads picks indirect-heavy presets (interpreter/browser-like
// fan-out) plus one SPEC control.
func ittageWorkloads() []string {
	return []string{
		"chrome-1jetstream", "chrome-1speedometer", "523.xalancbmk",
		"500.perlbench", "502.gcc", "505.mcf",
	}
}

// newITTAGEVariant builds comparison variant v (ITTAGEVariants order).
func newITTAGEVariant(v int, seed uint64) sim.Model {
	switch v {
	case 0:
		return &sim.UnitModel{ModelName: "btb-only", Unit: core.NewUnprotectedUnit(core.DirSKLCond)}
	case 1:
		return &sim.UnitModel{ModelName: "btb+ittage", Unit: core.NewUnprotectedUnitITTAGE(core.DirSKLCond)}
	case 2:
		return core.NewModel(core.ModelConfig{Dir: core.DirSKLCond, Seed: seed})
	default:
		return core.NewModel(core.ModelConfig{Dir: core.DirSKLCond, Seed: seed, IndirectITTAGE: true})
	}
}

// ittageCell is one (workload, variant) measurement. Its fields are
// exported so the cell survives the JSON round-trip through a wire
// backend (see harness.CellResult).
type ittageCell struct {
	TargetRate, OAE float64
}

// ittageScenario declares the (workload × variant) cells and the
// comparison over them. Trace-major: the four variants share one pass
// per workload.
func ittageScenario(p harness.Params, pool *harness.Pool) (harness.Space[map[int]ittageCell, ittageCell], func([]ittageCell) (ITTAGEResult, error), error) {
	s := scaleOf(p)
	names := capList(ittageWorkloads(), s.MaxWorkloads)
	cache := pool.Traces()
	const nv = 4
	sp := harness.Joint("ittage", len(names)*nv,
		func(shard int) string { return harness.Locality(names[shard/nv], s.Records) },
		func(ctx context.Context, shards []int, seeds []uint64) ([]ittageCell, error) {
			rs, err := replayLineup(ctx, cache, names[shards[0]/nv], s.Records, shards, seeds,
				func(shard int, seed uint64, _ bool) sim.Model { return newITTAGEVariant(shard%nv, seed) })
			if err != nil {
				return nil, err
			}
			out := make([]ittageCell, len(rs))
			for i, res := range rs {
				out[i] = ittageCell{TargetRate: res.TargetRate(), OAE: res.OAE()}
			}
			return out, nil
		})
	return sp, func(cells []ittageCell) (ITTAGEResult, error) {
		res := ITTAGEResult{Rows: make([]ITTAGERow, len(names))}
		for w := range names {
			row := ITTAGERow{Workload: names[w]}
			for v := 0; v < nv; v++ {
				row.TargetRate[v] = cells[w*nv+v].TargetRate
				row.OAE[v] = cells[w*nv+v].OAE
			}
			res.Rows[w] = row
		}
		for v := 0; v < nv; v++ {
			tr := make([]float64, len(res.Rows))
			oae := make([]float64, len(res.Rows))
			for i, r := range res.Rows {
				tr[i] = r.TargetRate[v]
				oae[i] = r.OAE[v]
			}
			res.AvgTargetRate[v] = stats.Mean(tr)
			res.AvgOAE[v] = stats.Mean(oae)
		}
		return res, nil
	}, nil
}

// Render writes the comparison as a text table (shared renderer:
// results.Grid).
func (r ITTAGEResult) Render(w io.Writer) {
	names := ITTAGEVariants()
	g := results.Grid{LabelWidth: 22}
	g.Row(w, "workload (target rate)", results.Cells("%14s", names[:]...)...)
	for _, row := range r.Rows {
		g.Row(w, row.Workload, results.Cells("%14.4f", row.TargetRate[:]...)...)
	}
	g.Row(w, "AVG target rate", results.Cells("%14.4f", r.AvgTargetRate[:]...)...)
	g.Row(w, "AVG OAE", results.Cells("%14.4f", r.AvgOAE[:]...)...)
}

// ITTAGEHelps reports claim (1): ITTAGE raises the average target rate.
func (r ITTAGEResult) ITTAGEHelps() bool {
	return r.AvgTargetRate[1] > r.AvgTargetRate[0]
}

// ProtectionKeepsGain reports claim (2): the target-rate *gain* ITTAGE
// provides survives the ST wrapper — the protected pair's improvement is
// within eps of the unprotected pair's improvement. (Comparing protected
// against unprotected directly would conflate ITTAGE with the general ST
// cost the other figures already measure.)
func (r ITTAGEResult) ProtectionKeepsGain(eps float64) bool {
	unprotGain := r.AvgTargetRate[1] - r.AvgTargetRate[0]
	protGain := r.AvgTargetRate[3] - r.AvgTargetRate[2]
	return protGain >= unprotGain-eps
}
