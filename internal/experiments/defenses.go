package experiments

// The defense-comparison experiment extends the paper's §VIII related-work
// discussion into a measured head-to-head: the four published alternative
// designs (BRB, BSUP, Zhao-DAC21, Exynos-XOR) run over the same traces and
// the same attack drivers as the baseline and STBPU. The paper argues
// these comparisons qualitatively; here they are regenerated as numbers —
// accuracy retention on switch-heavy workloads and an attack-outcome
// matrix per Table I class.

import (
	"context"
	"fmt"
	"io"

	"stbpu/internal/attacks"
	"stbpu/internal/core"
	"stbpu/internal/defenses"
	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
)

// DefenseModels returns the comparison lineup in presentation order:
// baseline, the four related-work designs, STBPU.
func DefenseModels() []string {
	names := []string{"baseline"}
	for _, k := range defenses.Kinds() {
		names = append(names, k.String())
	}
	return append(names, "STBPU")
}

// newDefenseModel constructs lineup entry idx (DefenseModels order) —
// only the selected model, since each (workload × model) cell needs one
// and predictor tables are expensive to allocate.
func newDefenseModel(idx int, sharedTokens bool, seed uint64) sim.Model {
	kinds := defenses.Kinds()
	switch {
	case idx == 0:
		return sim.New(sim.KindBaseline, sim.Options{Seed: seed})
	case idx <= len(kinds):
		return defenses.New(kinds[idx-1], defenses.Options{Seed: seed})
	default:
		return sim.New(sim.KindSTBPU, sim.Options{SharedTokens: sharedTokens, Seed: seed})
	}
}

// DefenseAccuracyRow is one workload's OAE across the lineup.
type DefenseAccuracyRow struct {
	Workload   string
	OAE        []float64
	Normalized []float64
}

// DefenseAccuracyResult is the accuracy half of the comparison.
type DefenseAccuracyResult struct {
	Models        []string
	Rows          []DefenseAccuracyRow
	AvgNormalized []float64
}

// defenseWorkloads picks a mix that exposes the designs' trade-offs:
// switch-heavy server/interactive workloads (where retention matters) and
// compute-bound SPEC (where raw accuracy matters).
func defenseWorkloads() []string {
	return []string{
		"505.mcf", "541.leela", "520.omnetpp", "531.deepsjeng",
		"apache2_prefork_c256", "mysql_128con_50s", "chrome-1jetstream",
	}
}

// defenseAccuracyScenario declares the (workload × model) cells and the
// OAE comparison over them. Trace-major: one pass per workload feeds
// the whole model lineup.
func defenseAccuracyScenario(p harness.Params, pool *harness.Pool) (harness.Space[map[int]float64, float64], func([]float64) (DefenseAccuracyResult, error), error) {
	s := scaleOf(p)
	names := capList(defenseWorkloads(), s.MaxWorkloads)
	cache := pool.Traces()
	k := len(DefenseModels())
	sp := harness.Joint("defense-accuracy", len(names)*k,
		func(shard int) string { return harness.Locality(names[shard/k], s.Records) },
		func(ctx context.Context, shards []int, seeds []uint64) ([]float64, error) {
			rs, err := replayLineup(ctx, cache, names[shards[0]/k], s.Records, shards, seeds,
				func(shard int, seed uint64, sharedTokens bool) sim.Model {
					return newDefenseModel(shard%k, sharedTokens, seed)
				})
			if err != nil {
				return nil, err
			}
			return oaes(rs), nil
		})
	return sp, func(oaes []float64) (DefenseAccuracyResult, error) {
		res := DefenseAccuracyResult{Models: DefenseModels()}
		res.Rows = make([]DefenseAccuracyRow, len(names))
		for w := range names {
			row := DefenseAccuracyRow{
				Workload:   names[w],
				OAE:        oaes[w*k : (w+1)*k : (w+1)*k],
				Normalized: make([]float64, k),
			}
			for mi := range row.Normalized {
				row.Normalized[mi] = row.OAE[mi] / row.OAE[0]
			}
			res.Rows[w] = row
		}
		res.AvgNormalized = make([]float64, k)
		for mi := range res.Models {
			vals := make([]float64, len(res.Rows))
			for i, r := range res.Rows {
				vals[i] = r.Normalized[mi]
			}
			res.AvgNormalized[mi] = stats.Mean(vals)
		}
		return res, nil
	}, nil
}

// Render writes the accuracy comparison as a text table (shared
// renderer: results.Grid).
func (r DefenseAccuracyResult) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 24}
	g.Row(w, "workload", results.Cells("%12s", r.Models...)...)
	for _, row := range r.Rows {
		g.Row(w, row.Workload, results.Cells("%12.3f", row.Normalized...)...)
	}
	g.Row(w, "AVG (normalized OAE)", results.Cells("%12.3f", r.AvgNormalized...)...)
}

// DefenseMatrixCell is one (attack, model) outcome.
type DefenseMatrixCell struct {
	Attack    string
	Model     string
	Succeeded bool
	Trials    int
}

// DefenseMatrixResult is the security half of the comparison.
type DefenseMatrixResult struct {
	Attacks []string
	Models  []string
	// Cells[a][m] is the outcome of attack a against model m.
	Cells [][]DefenseMatrixCell
}

// defenseAttackBudget bounds the blind scans in the matrix.
const defenseAttackBudget = 512

// matrixRuns is the repeatability requirement: an attack class counts as
// OPEN only if it succeeds in at least matrixWins of matrixRuns
// independent runs. A single lucky blind collision against a randomized
// defense is not a usable channel.
const (
	matrixRuns = 4
	matrixWins = 3
)

// newMatrixTarget builds a fresh instance of the named model for one run.
func newMatrixTarget(models []string, idx int, seed uint64) *attacks.Target {
	name := models[idx]
	switch name {
	case "baseline":
		return attacks.NewBaselineTarget()
	case "STBPU":
		return &attacks.Target{Model: core.NewModel(core.ModelConfig{Dir: core.DirSKLCond, Seed: seed}), Name: name}
	default:
		k := defenses.Kinds()[idx-1]
		return &attacks.Target{
			Model: defenses.New(k, defenses.Options{Seed: seed}),
			Name:  name,
		}
	}
}

// matrixDriver is one Table I attack class adapted to target factories, so
// paired trials (e.g. BlueThunder with both secret values) stay
// independent.
type matrixDriver struct {
	name string
	run  func(mk func() *attacks.Target) attacks.Result
}

// matrixDrivers is the attack lineup of the §VIII matrix.
func matrixDrivers() []matrixDriver {
	return []matrixDriver{
		{"btb-reuse", func(mk func() *attacks.Target) attacks.Result {
			return attacks.BTBReuseSideChannel(mk(), defenseAttackBudget)
		}},
		{"branchscope", func(mk func() *attacks.Target) attacks.Result {
			return attacks.BranchScope(mk(), true, defenseAttackBudget)
		}},
		// BlueThunder succeeds only if it recovers BOTH secret values —
		// a one-sided success is indistinguishable from a coin flip.
		{"bluethunder", func(mk func() *attacks.Target) attacks.Result {
			a := attacks.BlueThunder(mk(), true, 16)
			b := attacks.BlueThunder(mk(), false, 16)
			a.Succeeded = a.Succeeded && b.Succeeded
			a.Trials += b.Trials
			return a
		}},
		{"spectre-v2", func(mk func() *attacks.Target) attacks.Result {
			return attacks.SpectreV2(mk(), defenseAttackBudget)
		}},
		{"same-addr-space", func(mk func() *attacks.Target) attacks.Result {
			return attacks.SameAddressSpaceCollision(mk(), defenseAttackBudget)
		}},
		{"dos-reuse", func(mk func() *attacks.Target) attacks.Result {
			return attacks.DoSReuse(mk(), 64)
		}},
		// The SMT scenario: two hardware threads co-resident on one core.
		// Designs with a single key register per core (BSUP, §VIII
		// "unsuitable for SMT processors") are forced to share one key
		// across threads, which reopens cross-thread reuse; STBPU holds a
		// token register per hardware thread.
		{"btb-reuse (SMT)", func(mk func() *attacks.Target) attacks.Result {
			t := mk()
			if s, ok := t.Model.(interface{ SetSMTShared(bool) }); ok {
				s.SetSMTShared(true)
			}
			return attacks.BTBReuseSideChannel(t, defenseAttackBudget)
		}},
	}
}

// matrixTrials returns p's trial count, defaulting to matrixRuns.
func matrixTrials(p harness.Params) int {
	if p.Trials <= 0 {
		return matrixRuns
	}
	return p.Trials
}

// defenseMatrixScenario declares the matrix's (attack × model × trial)
// cells and the matrix over them. An attack class counts as OPEN only
// if it succeeds in at least matrixWins of matrixRuns independent runs,
// a bar that scales with p.Trials.
func defenseMatrixScenario(p harness.Params, _ *harness.Pool) (harness.Space[struct{}, attacks.Result], func([]attacks.Result) (DefenseMatrixResult, error), error) {
	drivers := matrixDrivers()
	models := DefenseModels()
	trials := matrixTrials(p)
	nm := len(models)
	sp := harness.Cells("defense-matrix", len(drivers)*nm*trials,
		func(ctx context.Context, shard int, seed uint64) (attacks.Result, error) {
			a := shard / (nm * trials)
			m := (shard / trials) % nm
			return drivers[a].run(func() *attacks.Target {
				return newMatrixTarget(models, m, seed)
			}), nil
		})
	return sp, func(runs []attacks.Result) (DefenseMatrixResult, error) {
		res := DefenseMatrixResult{Models: models}
		for _, d := range drivers {
			res.Attacks = append(res.Attacks, d.name)
		}
		// The win bar scales with the trial count, preserving the 3-of-4
		// default ratio.
		wins := (matrixWins*trials + matrixRuns - 1) / matrixRuns
		res.Cells = make([][]DefenseMatrixCell, len(drivers))
		for a, d := range drivers {
			res.Cells[a] = make([]DefenseMatrixCell, nm)
			for m, name := range res.Models {
				won, total := 0, 0
				for run := 0; run < trials; run++ {
					r := runs[a*nm*trials+m*trials+run]
					if r.Succeeded {
						won++
					}
					total += r.Trials
				}
				res.Cells[a][m] = DefenseMatrixCell{
					Attack: d.name, Model: name,
					Succeeded: won >= wins, Trials: total / trials,
				}
			}
		}
		return res, nil
	}, nil
}

// Render writes the matrix with one row per attack (shared renderer:
// results.Grid).
func (r DefenseMatrixResult) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 18}
	g.Row(w, "attack", results.Cells("%12s", r.Models...)...)
	for a, name := range r.Attacks {
		cells := make([]string, len(r.Models))
		for m := range r.Models {
			verdict := "stopped"
			if r.Cells[a][m].Succeeded {
				verdict = "OPEN"
			}
			cells[m] = fmt.Sprintf("%12s", verdict)
		}
		g.Row(w, name, cells...)
	}
}

// STBPUStopsAll reports whether the STBPU column is fully "stopped" — the
// reproduction claim the tests assert.
func (r DefenseMatrixResult) STBPUStopsAll() bool {
	col := len(r.Models) - 1
	for a := range r.Attacks {
		if r.Cells[a][col].Succeeded {
			return false
		}
	}
	return true
}

// BaselineOpenToAll reports whether the baseline column is fully "OPEN".
func (r DefenseMatrixResult) BaselineOpenToAll() bool {
	for a := range r.Attacks {
		if !r.Cells[a][0].Succeeded {
			return false
		}
	}
	return true
}
