package harness_test

// The README's "Adding a scenario" snippet, compiled and run: a scenario
// is one Define over a function returning its cell Space and the
// aggregate over its cells.

import (
	"context"
	"fmt"

	"stbpu/internal/harness"
	"stbpu/internal/rng"
)

// PiCell is one cell's sample: how many of its points fell inside the
// unit quarter circle. Its fields are exported so the cell survives the
// JSON round-trip of a fleet backend.
type PiCell struct{ Inside, Points int }

// PiResult is the aggregate over every cell.
type PiResult struct{ Estimate float64 }

// The scenario registers once per process, as a package's init does,
// so the example can repeat in one process.
func init() {
	harness.Register(harness.Define("pi", "Monte Carlo estimate of π", harness.Params{Trials: 8},
		func(p harness.Params, pool *harness.Pool) (harness.Space[struct{}, PiCell], func([]PiCell) (PiResult, error), error) {
			sp := harness.Cells("pi", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (PiCell, error) {
					r := rng.New(seed) // derive ALL randomness from the cell seed
					c := PiCell{Points: 10_000}
					for i := 0; i < c.Points; i++ {
						if x, y := r.Float64(), r.Float64(); x*x+y*y < 1 {
							c.Inside++
						}
					}
					return c, nil
				})
			return sp, func(cells []PiCell) (PiResult, error) {
				inside, points := 0, 0
				for _, c := range cells { // shard order
					inside += c.Inside
					points += c.Points
				}
				return PiResult{Estimate: 4 * float64(inside) / float64(points)}, nil
			}, nil
		}))
}

// ExampleDefine runs the scenario registered above.
func ExampleDefine() {
	reports, err := harness.RunAll(context.Background(), harness.NewPool(2, harness.DefaultRootSeed),
		harness.Options{Filters: []string{"pi"}})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d cells, π ≈ %.2f\n", reports[0].Cells, reports[0].Result.(PiResult).Estimate)
	// Output:
	// 8 cells, π ≈ 3.15
}
