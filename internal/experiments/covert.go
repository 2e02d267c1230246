package experiments

// The covert-channel experiment quantifies BPU isolation directly: a
// cooperating sender/receiver pair measures the PHT channel's bit-error
// rate on every model in the defense lineup. Capacity (1 - H2(p) through
// a binary symmetric channel) is the cleanest single number for "how much
// information crosses the isolation boundary" — ~1 bit/symbol on the
// unprotected baseline, ~0 under STBPU.

import (
	"context"
	"fmt"
	"io"

	"stbpu/internal/attacks"
	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/rng"
)

// CovertRow is one model's channel measurement.
type CovertRow struct {
	Model string
	// ErrorRate is the measured bit-error probability.
	ErrorRate float64
	// Capacity is bits/symbol through the BSC model.
	Capacity float64
	// Bandwidth is usable bits per thousand branch records.
	Bandwidth float64
	// Rerandomizations observed (STBPU only).
	Rerandomizations uint64
}

// CovertResult is the whole comparison.
type CovertResult struct {
	Bits int
	Rows []CovertRow
}

// covertCell is one (model, trial) measurement before averaging. Its
// fields are exported so the cell survives the JSON round-trip through a
// wire backend (see harness.CellResult).
type covertCell struct {
	ErrRate, Capacity, Bandwidth float64
	Rerands                      uint64
}

// covertScenario declares the channel's (model × trial) cells and the
// comparison over them; trials average out randomized defenses' luck.
func covertScenario(p harness.Params, _ *harness.Pool) (harness.Space[struct{}, covertCell], func([]covertCell) (CovertResult, error), error) {
	models := DefenseModels()
	trials := matrixTrials(p)
	sp := harness.Cells("covert", len(models)*trials,
		func(ctx context.Context, shard int, seed uint64) (covertCell, error) {
			tgt := newMatrixTarget(models, shard/trials, seed)
			// The channel's pattern RNG gets its own stream, split off the
			// cell seed so model and channel noise stay independent.
			chanSeed := rng.SplitMix64(&seed)
			r := attacks.PHTCovertChannel(tgt, p.Bits, chanSeed)
			return covertCell{
				ErrRate:   r.ErrorRate(),
				Capacity:  r.CapacityPerSymbol(),
				Bandwidth: r.BandwidthBitsPerKRecord(),
				Rerands:   r.Rerandomizations,
			}, nil
		})
	return sp, func(cells []covertCell) (CovertResult, error) {
		res := CovertResult{Bits: p.Bits}
		for m := range models {
			var row CovertRow
			for _, c := range cells[m*trials : (m+1)*trials] {
				row.ErrorRate += c.ErrRate
				row.Capacity += c.Capacity
				row.Bandwidth += c.Bandwidth
				row.Rerandomizations += c.Rerands
			}
			row.Model = models[m]
			row.ErrorRate /= float64(trials)
			row.Capacity /= float64(trials)
			row.Bandwidth /= float64(trials)
			res.Rows = append(res.Rows, row)
		}
		return res, nil
	}, nil
}

// Render writes the channel comparison as a text table (shared
// renderer: results.Grid).
func (r CovertResult) Render(w io.Writer) {
	fmt.Fprintf(w, "PHT covert channel, %d bits per run\n", r.Bits)
	g := results.Grid{LabelWidth: 14}
	g.Row(w, "model", fmt.Sprintf("%10s", "error"), fmt.Sprintf("%12s", "bits/symbol"),
		fmt.Sprintf("%16s", "bits/krecord"), fmt.Sprintf("%8s", "rerand"))
	for _, row := range r.Rows {
		g.Row(w, row.Model, fmt.Sprintf("%10.3f", row.ErrorRate),
			fmt.Sprintf("%12.3f", row.Capacity), fmt.Sprintf("%16.3f", row.Bandwidth),
			fmt.Sprintf("%8d", row.Rerandomizations))
	}
}

// Row returns the named model's measurement.
func (r CovertResult) Row(model string) (CovertRow, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return CovertRow{}, false
}
