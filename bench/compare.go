package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// Verdicts for one (metric, workload) pair of two benchmark sets.
const (
	verdictWithin     = "within"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "mismatch"
	verdictMissing    = "missing"
)

// judge compares the b set of an end-to-end metric against the a set.
// Where either set's interquartile spread exceeds the bound the pair is
// unresolved, unless every b sample beats every a sample. Otherwise b is
// worse when its median is worse than a's by more than the bound (or,
// with a floor, by more than the floor in absolute terms as well).
func judge(def metricDef, a, b summary) (string, float64) {
	if a.N == 0 || b.N == 0 {
		return verdictMissing, 0
	}
	// delta > 0 means b is worse.
	delta := ratio(b.Value-a.Value, math.Abs(a.Value))
	if def.Better == "higher" {
		delta = ratio(a.Value-b.Value, math.Abs(a.Value))
	}
	if math.Max(a.spread(), b.spread()) > def.Bound {
		if separated(def, a.Samples, b.Samples) {
			return verdictBetter, delta
		}
		return verdictUnresolved, delta
	}
	allowed := def.Bound
	if def.Floor > 0 && a.Value != 0 {
		allowed = math.Max(allowed, def.Floor/math.Abs(a.Value))
	}
	switch {
	case delta > allowed:
		return verdictWorse, delta
	case delta < -allowed:
		return verdictBetter, delta
	}
	return verdictWithin, delta
}

// separated reports whether every b sample is better than every a sample.
func separated(def metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	lo, hi := sorted(a), sorted(b)
	if def.Better == "higher" {
		return hi[0] > lo[len(lo)-1]
	}
	return hi[len(hi)-1] < lo[0]
}

// compareSets prints a verdict for every metric and workload of two set
// documents and reports whether they agree: no end-to-end metric worse
// than its bound, every exact per-layer value equal, and every workload
// present in both.
func compareSets(a, b setDoc, w io.Writer) bool {
	ok := true
	bw := map[string]workloadReport{}
	for _, r := range b.Workloads {
		bw[r.Name] = r
	}
	// Simulated statistics and the output digest depend on the seed, so
	// exact values are held equal only between sets of one seed.
	sameSeed := a.Env.Seed == b.Env.Seed
	if !sameSeed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): exact values not compared\n", a.Env.Seed, b.Env.Seed)
	}
	row := func(name, metric, va, vb, delta, verdict string) {
		fmt.Fprintf(w, "%-11s %-34s %14s %14s %9s  %s\n", name, metric, va, vb, delta, verdict)
	}
	num := func(x float64) string { return fmt.Sprintf("%.6g", x) }
	row("workload", "metric", "a", "b", "delta", "verdict")
	for _, ra := range a.Workloads {
		rb, found := bw[ra.Name]
		if !found {
			row(ra.Name, "-", "", "", "", verdictMissing)
			ok = false
			continue
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			row(ra.Name, "failed_cells", strconv.Itoa(ra.Failed), strconv.Itoa(rb.Failed), "", verdictWorse)
			ok = false
		}
		if sameSeed && ra.Digest != rb.Digest {
			row(ra.Name, "output_digest", ra.Digest[:min(12, len(ra.Digest))], rb.Digest[:min(12, len(rb.Digest))], "", verdictMismatch)
			ok = false
		}
		for _, def := range e2eMetrics {
			v, delta := judge(def, ra.E2E[def.Name], rb.E2E[def.Name])
			if v == verdictWorse || v == verdictMissing {
				ok = false
			}
			row(ra.Name, def.Name, num(ra.E2E[def.Name].Value), num(rb.E2E[def.Name].Value),
				fmt.Sprintf("%+.2f%%", 100*delta), v)
		}
		if !sameSeed {
			continue
		}
		for _, def := range layerMetrics() {
			va, vb := ra.Layer[def.Name], rb.Layer[def.Name]
			if !def.Exact || va.Value == vb.Value {
				continue
			}
			ok = false
			row(ra.Name, def.Name, num(va.Value), num(vb.Value), "", verdictMismatch)
		}
	}
	return ok
}

func readSet(path string) (setDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return setDoc{}, err
	}
	var d setDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return setDoc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
