package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	_ "stbpu/internal/experiments" // registers the scenarios
	"stbpu/internal/harness"
)

func TestCatalogMeetsContract(t *testing.T) {
	if err := checkCatalog(e2eMetrics, layerMetrics()); err != nil {
		t.Fatal(err)
	}
}

func TestMetricNameRegex(t *testing.T) {
	for _, ok := range []string{"wall_s", "scenario.defense-accuracy.busy_s", "9a", "A.b-c_d"} {
		if !nameRE.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "wall s", "cpu/s", "a:b", "é", "x\n"} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestCatalogCaps(t *testing.T) {
	layer := layerMetrics()
	many := func(n int, prefix string, better string, bound float64) []metricDef {
		ms := make([]metricDef, n)
		for i := range ms {
			ms[i] = metricDef{Name: fmt.Sprintf("%s%d", prefix, i), Unit: "s", Better: better, Bound: bound}
		}
		return ms
	}
	tooManyE2E := append(many(maxE2EMetrics, "e", "lower", 0.1), e2eMetrics[2]) // includes setup_s
	if err := checkCatalog(tooManyE2E, layer); err == nil {
		t.Errorf("%d end-to-end metrics accepted", len(tooManyE2E))
	}
	if err := checkCatalog(e2eMetrics, many(maxLayerMetrics+1, "l", "lower", 0)); err == nil {
		t.Errorf("%d per-layer metrics accepted", maxLayerMetrics+1)
	}
	if err := checkCatalog(e2eMetrics, many(maxLayerMetrics, "l", "lower", 0)); err != nil {
		t.Errorf("%d per-layer metrics rejected: %v", maxLayerMetrics, err)
	}
	if err := checkCatalog(many(3, "e", "lower", 0.1), layer); err == nil {
		t.Error("catalog without setup_s accepted")
	}
	wide := append([]metricDef{}, e2eMetrics...)
	wide[0].Bound = 0.3
	if err := checkCatalog(wide, layer); err == nil {
		t.Error("bound above 0.25 accepted")
	}
	dup := append(append([]metricDef{}, layer...), layer[0])
	if err := checkCatalog(e2eMetrics, dup); err == nil {
		t.Error("duplicate metric accepted")
	}
}

func TestScenarioNamesMatchRegistry(t *testing.T) {
	var got []string
	for _, s := range harness.All() {
		got = append(got, s.Name)
	}
	if strings.Join(got, ",") != strings.Join(scenarioNames, ",") {
		t.Errorf("registry %v, per-scenario metrics cover %v", got, scenarioNames)
	}
}

// BENCHMARK.json at the repository root must describe exactly what the
// benchmark measures and reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: listed %q, defined %q", i, w, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d defined", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			d := defs[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: listed %+v, defined %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s %s: listed bound %v, defined %v", kind, m.Name, m.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics(), false)
}
