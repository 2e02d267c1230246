package experiments

// Typed results pipeline: every scenario aggregate flattens into a
// results.Table — (cell, metric, value) rows in canonical order — so
// cmd/stbpu-report can diff any two runs metric by metric without
// knowing the aggregates' shapes. DecodeResult (scenarios.go) is the
// wire half: it turns a suite document's raw `result` JSON back into
// the type its scenario registered.

import (
	"stbpu/internal/attacks"
	"stbpu/internal/results"
	"stbpu/internal/sim"
)

// Table implements results.Tabler.
func (r Fig3Result) Table() results.Table {
	var t results.Table
	kinds := sim.Fig3Kinds()
	for _, row := range r.Rows {
		for i, k := range kinds {
			cell := results.Labels("workload", row.Workload, "model", k.String())
			t.Add(cell, "oae", row.OAE[i])
			t.Add(cell, "norm_oae", row.Normalized[i])
		}
	}
	for i, k := range kinds {
		t.Add(results.Labels("model", k.String()), "avg_norm_oae", r.AvgNormalized[i])
	}
	return t
}

// fig4CellMetrics flattens the (dir, tgt, ipc) triple shared by the
// Fig. 4 and Fig. 5 aggregates.
func fig4CellMetrics(t *results.Table, cell string, c Fig4Cell) {
	t.Add(cell, "dir_reduction", c.DirReduction)
	t.Add(cell, "tgt_reduction", c.TgtReduction)
	t.Add(cell, "norm_ipc", c.NormIPC)
}

// Table implements results.Tabler.
func (r Fig4Result) Table() results.Table {
	var t results.Table
	dirs := Fig4Dirs()
	for _, row := range r.Rows {
		for i, d := range dirs {
			fig4CellMetrics(&t, results.Labels("workload", row.Workload, "predictor", d.String()), row.Cells[i])
		}
	}
	for i, d := range dirs {
		fig4CellMetrics(&t, results.Labels("predictor", d.String()), r.Avg[i])
	}
	return t
}

// Table implements results.Tabler.
func (r Fig5Result) Table() results.Table {
	var t results.Table
	dirs := Fig4Dirs()
	for _, row := range r.Rows {
		pair := row.Pair[0] + "+" + row.Pair[1]
		for i, d := range dirs {
			fig4CellMetrics(&t, results.Labels("pair", pair, "predictor", d.String()), row.Cells[i])
		}
	}
	for i, d := range dirs {
		fig4CellMetrics(&t, results.Labels("predictor", d.String()), r.Avg[i])
	}
	return t
}

// Table implements results.Tabler.
func (r Fig6Result) Table() results.Table {
	var t results.Table
	for _, p := range r.Points {
		cell := results.Labels("r", results.Ftoa(p.R))
		t.Add(cell, "accuracy", p.Accuracy)
		t.Add(cell, "norm_ipc", p.NormIPC)
		t.AddUnit(cell, "rerands", "count", float64(p.Rerands))
	}
	return t
}

// Table implements results.Tabler.
func (r ThresholdReport) Table() results.Table {
	var t results.Table
	for _, c := range r.Complexities {
		t.AddUnit(results.Labels("attack", c.Attack, "metric", c.Metric), "events_50pct", "events", c.Events)
	}
	cell := results.Labels("r", results.Ftoa(r.R))
	t.AddUnit(cell, "misp_threshold", "events", r.MispThresh)
	t.AddUnit(cell, "evict_threshold", "events", r.EvictThresh)
	return t
}

// Table implements results.Tabler.
func (r GammaResult) Table() results.Table {
	var t results.Table
	for _, row := range r.Rows {
		cell := results.Labels("r", results.Ftoa(row.R))
		t.AddUnit(cell, "misp_gamma", "events", row.MispThreshold)
		t.AddUnit(cell, "evict_gamma", "events", row.EvictThreshold)
		t.Add(cell, "epoch_success", row.EpochSuccess)
		t.AddUnit(cell, "epochs_for_50pct", "epochs", row.EpochsFor50)
	}
	return t
}

// attackResultMetrics flattens one attack driver outcome.
func attackResultMetrics(t *results.Table, cell string, r attacks.Result) {
	t.Add(cell, "succeeded", results.Bool01(r.Succeeded))
	t.AddUnit(cell, "trials", "count", float64(r.Trials))
}

// Table implements results.Tabler.
func (r TableIResult) Table() results.Table {
	var t results.Table
	for _, row := range r.Rows {
		attackResultMetrics(&t, results.Labels("attack", row.Attack, "model", "baseline"), row.Baseline)
		attackResultMetrics(&t, results.Labels("attack", row.Attack, "model", "STBPU"), row.STBPU)
	}
	return t
}

// Table implements results.Tabler.
func (r DefenseAccuracyResult) Table() results.Table {
	var t results.Table
	for _, row := range r.Rows {
		for i, m := range r.Models {
			cell := results.Labels("workload", row.Workload, "model", m)
			t.Add(cell, "oae", row.OAE[i])
			t.Add(cell, "norm_oae", row.Normalized[i])
		}
	}
	for i, m := range r.Models {
		t.Add(results.Labels("model", m), "avg_norm_oae", r.AvgNormalized[i])
	}
	return t
}

// Table implements results.Tabler.
func (r DefenseMatrixResult) Table() results.Table {
	var t results.Table
	for a, attack := range r.Attacks {
		for m, model := range r.Models {
			cell := results.Labels("attack", attack, "model", model)
			t.Add(cell, "open", results.Bool01(r.Cells[a][m].Succeeded))
			t.AddUnit(cell, "trials", "count", float64(r.Cells[a][m].Trials))
		}
	}
	return t
}

// Table implements results.Tabler.
func (r CovertResult) Table() results.Table {
	var t results.Table
	for _, row := range r.Rows {
		cell := results.Labels("model", row.Model)
		t.Add(cell, "error_rate", row.ErrorRate)
		t.AddUnit(cell, "capacity", "bits/symbol", row.Capacity)
		t.AddUnit(cell, "bandwidth", "bits/krecord", row.Bandwidth)
		t.AddUnit(cell, "rerands", "count", float64(row.Rerandomizations))
	}
	return t
}

// Table implements results.Tabler.
func (r ITTAGEResult) Table() results.Table {
	var t results.Table
	variants := ITTAGEVariants()
	for _, row := range r.Rows {
		for v, name := range variants {
			cell := results.Labels("workload", row.Workload, "variant", name)
			t.Add(cell, "target_rate", row.TargetRate[v])
			t.Add(cell, "oae", row.OAE[v])
		}
	}
	for v, name := range variants {
		cell := results.Labels("variant", name)
		t.Add(cell, "avg_target_rate", r.AvgTargetRate[v])
		t.Add(cell, "avg_oae", r.AvgOAE[v])
	}
	return t
}

// Table implements results.Tabler.
func (r WarmupResult) Table() results.Table {
	var t results.Table
	for _, p := range r.Points {
		for i, k := range sim.Fig3Kinds() {
			cell := results.Labels("workload", r.Workload, "records", results.Itoa(p.Records), "model", k.String())
			t.Add(cell, "norm_oae", p.NormOAE[i])
		}
	}
	return t
}
