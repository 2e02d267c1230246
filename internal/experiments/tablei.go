package experiments

import (
	"context"
	"fmt"
	"io"

	"stbpu/internal/attacks"
	"stbpu/internal/harness"
	"stbpu/internal/results"
)

// TableIRow is one attack-surface cell: the same driver run against the
// baseline and STBPU.
type TableIRow struct {
	Attack   string
	Cell     string // Table I classification (RB-HE, RB-AE, EB-HE, EB-AE)
	Baseline attacks.Result
	STBPU    attacks.Result
}

// TableIResult is the executable version of the paper's Table I.
type TableIResult struct {
	Rows []TableIRow
}

// tableIDriver is one attack-surface entry.
type tableIDriver struct {
	name, cell string
	run        func(t *attacks.Target, budget int) attacks.Result
}

// tableIDrivers enumerates the surface.
func tableIDrivers() []tableIDriver {
	return []tableIDriver{
		{"BTB reuse side channel", "RB-HE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.BTBReuseSideChannel(t, b)
		}},
		{"PHT reuse (BranchScope)", "RB-HE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.BranchScope(t, true, b)
		}},
		{"RSB reuse (call-site leak)", "RB-HE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.RSBReuseHomeEffect(t)
		}},
		{"BTB target injection (Spectre v2)", "RB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.SpectreV2(t, b)
		}},
		{"PHT planting (victim path steer)", "RB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.PHTAwayEffect(t, b/10+1)
		}},
		{"BTB planting (victim target steer)", "RB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.BTBAwayEffect(t, b)
		}},
		{"RSB injection (SpectreRSB)", "RB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.SpectreRSB(t, b)
		}},
		{"Same-address-space trojan", "RB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.SameAddressSpaceCollision(t, b)
		}},
		{"BTB eviction detection", "EB-HE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.EvictionSetAttack(t, b)
		}},
		{"RSB overflow (static fallback)", "EB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.RSBOverflowDoS(t, 32)
		}},
		{"Targeted eviction DoS", "EB-AE", func(t *attacks.Target, b int) attacks.Result {
			return attacks.DoSEviction(t, 50, 16)
		}},
	}
}

// baselineAttackBudget bounds the baseline-side scans (baseline attacks
// are deterministic, so a small budget suffices).
const baselineAttackBudget = 64

// tableIScenario declares the surface's (attack × model) cells and the
// table over them: even shards attack the baseline, odd ones STBPU,
// whose scans p.Budget bounds.
func tableIScenario(p harness.Params, _ *harness.Pool) (harness.Space[struct{}, attacks.Result], func([]attacks.Result) (TableIResult, error), error) {
	drivers := tableIDrivers()
	sp := harness.Cells("tablei", len(drivers)*2,
		func(ctx context.Context, shard int, seed uint64) (attacks.Result, error) {
			d := drivers[shard/2]
			if shard%2 == 0 {
				return d.run(attacks.NewBaselineTarget(), baselineAttackBudget), nil
			}
			return d.run(attacks.NewSTBPUTargetSeeded(nil, seed), p.Budget), nil
		})
	return sp, func(cells []attacks.Result) (TableIResult, error) {
		var res TableIResult
		for i, d := range drivers {
			res.Rows = append(res.Rows, TableIRow{
				Attack:   d.name,
				Cell:     d.cell,
				Baseline: cells[2*i],
				STBPU:    cells[2*i+1],
			})
		}
		return res, nil
	}, nil
}

// Render writes the table (shared renderer: results.Grid).
func (r TableIResult) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 36}
	g.Row(w, "attack", append(results.Cells("%-6s", "cell"), results.Cells("%-18s", "baseline", "STBPU")...)...)
	for _, row := range r.Rows {
		g.Row(w, row.Attack, fmt.Sprintf("%-6s", row.Cell),
			fmt.Sprintf("%-18s", verdict(row.Baseline)), fmt.Sprintf("%-18s", verdict(row.STBPU)))
	}
}

func verdict(r attacks.Result) string {
	if r.Succeeded {
		return fmt.Sprintf("succeeds@%d", r.Trials)
	}
	return fmt.Sprintf("blocked (%d tries)", r.Trials)
}

// Holds reports the paper's security claim over the surface: every
// collision-based attack that succeeds deterministically on the baseline
// is non-deterministic (blocked or brute-force) under STBPU. Capacity
// attacks (RSB overflow) are out of scope by design (§VI-A.6).
func (r TableIResult) Holds() bool {
	for _, row := range r.Rows {
		if row.Attack == "RSB overflow (static fallback)" {
			continue // capacity attack: not claimed
		}
		if row.Baseline.Succeeded && row.STBPU.Succeeded && row.STBPU.Trials <= 1 {
			return false
		}
	}
	return true
}
