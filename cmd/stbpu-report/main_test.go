package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
)

// writeDoc assembles a minimal suite document from live scenario
// aggregates — the same shape stbpu-suite -o emits.
func writeTestDoc(t *testing.T, path string, runs map[string]any) {
	t.Helper()
	doc := map[string]any{"suite": "stbpu-suite", "seed": 1, "runs": []any{}}
	var list []any
	for name, res := range runs {
		list = append(list, map[string]any{"scenario": name, "result": res})
	}
	doc["runs"] = list
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSelfDiffIsCleanAndExitsZero is the acceptance smoke: a document
// diffed against itself reports zero changed metrics and exits 0, both
// for a hand-built document and for the suite's golden, which holds real
// fig3, thresholds and covert results.
func TestSelfDiffIsCleanAndExitsZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	writeTestDoc(t, path, map[string]any{
		"thresholds": experiments.RunThresholds(0.05),
		"gamma":      experiments.RunGamma(nil),
	})
	for _, p := range []string{path, quickGolden} {
		var out, errb bytes.Buffer
		code := run([]string{p, p}, &out, &errb)
		if code != 0 {
			t.Fatalf("%s: self-diff exit = %d, stderr: %s", p, code, errb.String())
		}
		if !strings.Contains(out.String(), "0 changed") {
			t.Errorf("%s: self-diff reported changes:\n%s", p, out.String())
		}
	}
}

// TestRegressionGate: a metric moving beyond the threshold must flip
// the exit status to 1; within the threshold it stays 0.
func TestRegressionGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	base := experiments.RunThresholds(0.05)
	writeTestDoc(t, oldPath, map[string]any{"thresholds": base})
	// Degrade one metric by 20% under an unchanged key — a regression,
	// not a reconfiguration.
	worse := base
	worse.MispThresh *= 1.2
	writeTestDoc(t, newPath, map[string]any{"thresholds": worse})

	var out, errb bytes.Buffer
	if code := run([]string{oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("changed run exit = %d (default threshold 0 must gate)\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "!") {
		t.Errorf("violations not marked:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	// A 20% move passes a 50% threshold.
	if code := run([]string{"-threshold", "0.5", oldPath, newPath}, &out, &errb); code != 0 {
		t.Fatalf("within-threshold diff exit = %d, stderr: %s\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "1 changed") {
		t.Errorf("within-threshold change not reported:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeTestDoc(t, oldPath, map[string]any{"gamma": experiments.RunGamma([]float64{0.05})})
	writeTestDoc(t, newPath, map[string]any{"gamma": experiments.RunGamma([]float64{0.05, 0.005})})

	var out, errb bytes.Buffer
	// The default gate fails on one-sided metrics; -missing allow is the
	// explicit opt-out for intentionally different sweeps.
	if code := run([]string{"-json", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("one-sided metrics did not gate: exit = %d", code)
	}
	out.Reset()
	errb.Reset()
	code := run([]string{"-json", "-missing", "allow", oldPath, newPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit = %d (-missing allow must tolerate new-only rows): %s", code, errb.String())
	}
	var parsed struct {
		Compared int               `json:"compared"`
		OnlyNew  []json.RawMessage `json:"only_new"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("-json output unparseable: %v\n%s", err, out.String())
	}
	if parsed.Compared == 0 || len(parsed.OnlyNew) == 0 {
		t.Errorf("diff shape wrong: %+v", parsed)
	}
}

// TestJSONOutputSurvivesZeroBaselineChange: a metric leaving zero has
// an infinite relative change, which JSON numbers cannot carry — the
// machine-readable diff must still be produced (Rel as "+inf"), not
// silently empty, exactly when a violation occurs.
func TestJSONOutputSurvivesZeroBaselineChange(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeTestDoc(t, oldPath, map[string]any{"future": map[string]any{"succeeded": 0.0}})
	writeTestDoc(t, newPath, map[string]any{"future": map[string]any{"succeeded": 1.0}})

	var out, errb bytes.Buffer
	if code := run([]string{"-json", oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("zero-baseline violation exit = %d, want 1: %s", code, errb.String())
	}
	var parsed struct {
		Changed []struct {
			Rel any `json:"rel"`
		} `json:"changed"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("-json output unparseable with infinite rel: %v\n%s", err, out.String())
	}
	if len(parsed.Changed) != 1 || parsed.Changed[0].Rel != "+inf" {
		t.Errorf("infinite rel not encoded: %+v", parsed.Changed)
	}
}

// TestJournalInputs: two run journals diff cell by cell.
func TestJournalInputs(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, rootSeed uint64) string {
		path := filepath.Join(dir, name)
		j, err := harness.CreateJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		pool := harness.NewPool(2, rootSeed)
		pool.SetSink(j)
		if _, err := harness.RunAll(context.Background(), pool, harness.Options{
			Filters: []string{"gamma", "thresholds"},
		}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := mk("a.jsonl", 1)
	b := mk("b.jsonl", 1)

	var out, errb bytes.Buffer
	if code := run([]string{a, b}, &out, &errb); code != 0 {
		t.Fatalf("same-seed journals differ: exit %d\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "0 changed") {
		t.Errorf("journal self-comparison reported changes:\n%s", out.String())
	}
}

// TestJournalMixedParamsKeptDistinct: a journal holding the same cell
// address under two parameter sets (the documented re-parameterized
// resume case) must expose both, not silently shadow one.
func TestJournalMixedParamsKeptDistinct(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	j, err := harness.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := harness.CellSpec{Scenario: "s", Scope: "sc", Shard: 0, RootSeed: 1, Params: harness.Params{Records: 100}}
	j.CellDone(harness.Cell{Backend: "local"}, spec, harness.CellResult{Shard: 0, Value: json.RawMessage("1.5")})
	spec.Params.Records = 200
	j.CellDone(harness.Cell{Backend: "local"}, spec, harness.CellResult{Shard: 0, Value: json.RawMessage("2.5")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := harness.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	table := tableFromJournal(entries)
	if len(table.Rows) != 2 {
		t.Fatalf("mixed-params journal flattened to %d rows, want 2: %+v", len(table.Rows), table.Rows)
	}
	if table.Rows[0].Cell == table.Rows[1].Cell {
		t.Errorf("params missing from cell labels: %q", table.Rows[0].Cell)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	// One input renders a suite document; this one does not exist.
	if code := run([]string{"only-one-arg"}, &out, &errb); code != 2 {
		t.Errorf("missing document exit = %d, want 2", code)
	}
	if code := run([]string{"a", "b", "c"}, &out, &errb); code != 2 {
		t.Errorf("extra arg exit = %d, want 2", code)
	}
	if code := run([]string{"-threshold", "-1", "a", "b"}, &out, &errb); code != 2 {
		t.Errorf("negative threshold exit = %d, want 2", code)
	}
	if code := run([]string{"-missing", "bogus", "a", "b"}, &out, &errb); code != 2 {
		t.Errorf("bad -missing mode exit = %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "absent.json")
	if code := run([]string{missing, missing}, &out, &errb); code != 2 {
		t.Errorf("missing file exit = %d, want 2", code)
	}
}

// TestUnknownScenarioFallsBackToGenericFlatten: documents from a future
// suite with scenarios this binary doesn't know must still diff.
func TestUnknownScenarioFallsBackToGenericFlatten(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeTestDoc(t, oldPath, map[string]any{"future-scenario": map[string]any{"score": 1.5, "nested": []any{true, 2.0}}})
	writeTestDoc(t, newPath, map[string]any{"future-scenario": map[string]any{"score": 1.5, "nested": []any{true, 3.0}}})

	var out, errb bytes.Buffer
	if code := run([]string{oldPath, newPath}, &out, &errb); code != 1 {
		t.Fatalf("generic-flatten diff exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "nested/1") {
		t.Errorf("generic path metric missing:\n%s", out.String())
	}
}

// TestTimingSummary pins the -timing mode on a crafted journal: scopes
// aggregate cells/total/mean/min/max from elapsed_us, order is by
// total wall time descending, and duplicate cell addresses (resumed
// journal shape) are counted once.
func TestTimingSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := harness.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	add := func(scenario, scope string, shard int, elapsedUS int64) {
		j.CellDone(harness.Cell{Backend: "local"},
			harness.CellSpec{Scenario: scenario, Scope: scope, Shard: shard, RootSeed: 1},
			harness.CellResult{Shard: shard, Value: json.RawMessage("1"), ElapsedUS: elapsedUS})
	}
	add("fig3", "fig3", 0, 2_000) // 2 ms
	add("fig3", "fig3", 1, 4_000) // 4 ms
	add("covert", "covert", 0, 10_000)
	add("covert", "covert", 0, 99_000) // duplicate address: dropped
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-timing", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "3 cells, 2 scopes, 16.0 ms total cell time") {
		t.Errorf("header wrong:\n%s", text)
	}
	covert := strings.Index(text, "covert/covert")
	fig3 := strings.Index(text, "fig3/fig3")
	if covert == -1 || fig3 == -1 || covert > fig3 {
		t.Errorf("scopes missing or not sorted by total time:\n%s", text)
	}
	fig3Line := text[fig3:]
	fig3Line = fig3Line[:strings.Index(fig3Line, "\n")]
	for _, want := range []string{"2", "6.0", "3.0", "2.0", "4.0"} {
		if !strings.Contains(fig3Line, want) {
			t.Errorf("fig3 row lacks %q: %q", want, fig3Line)
		}
	}
}

// TestTimingUsage: -timing takes exactly one input; a suite document
// renders the backends summary rather than the journal report.
func TestTimingUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-timing", "a.jsonl", "b.jsonl"}, &out, &errb); code != 2 {
		t.Errorf("two inputs with -timing: exit %d, want 2", code)
	}
	doc := filepath.Join(t.TempDir(), "doc.json")
	writeTestDoc(t, doc, map[string]any{"thresholds": experiments.RunThresholds(2)})
	out.Reset()
	errb.Reset()
	if code := run([]string{"-timing", doc}, &out, &errb); code != 0 {
		t.Errorf("suite document with -timing: exit %d, want 0\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "backends of") {
		t.Errorf("suite document with -timing should render the backends summary:\n%s", out.String())
	}
}

// TestTimingBackendsReport: a suite document carrying a fleet backends
// block must surface the scheduler and wire diagnostics — per-worker
// affinity hits/misses and per-codec frame bytes.
func TestTimingBackendsReport(t *testing.T) {
	doc := map[string]any{
		"suite": "stbpu-suite",
		"seed":  1,
		"runs":  []any{},
		"backends": []any{
			map[string]any{
				"backend": "remote", "cells": 64, "retries": 1, "wall_ms": 12,
				"joins": 2, "leaves": 1,
				"wire_json_bytes": 512, "wire_binary_bytes": 4096,
				"workers": []any{
					map[string]any{"worker": "alpha#0", "cells": 40, "affinity_hits": 9, "affinity_misses": 1},
					map[string]any{"worker": "beta#1", "cells": 24, "affinity_hits": 5},
				},
			},
		},
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "suite.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-timing", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"remote: 64 cells, 1 retries, 12 ms wall, 2 joins, 1 leaves",
		"wire: 512 JSON frame bytes, 4096 binary frame bytes",
		"alpha#0", "beta#1", "aff hits", "aff misses",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("backends report lacks %q:\n%s", want, text)
		}
	}
}

// quickGolden is stbpu-suite's committed quick-scale document (fig3,
// thresholds, covert).
const quickGolden = "../stbpu-suite/testdata/quick.golden.json"

// readGolden parses quickGolden and returns its raw bytes and runs.
func readGolden(t *testing.T) ([]byte, []suiteRun) {
	t.Helper()
	raw, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatal(err)
	}
	var doc suiteDocIn
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 3 {
		t.Fatalf("golden holds %d runs, want 3", len(doc.Runs))
	}
	return raw, doc.Runs
}

// TestRenderDocument: one suite document prints one header per run, in
// document order, each followed by exactly the Render text of that
// run's decoded result.
func TestRenderDocument(t *testing.T) {
	_, runs := readGolden(t)
	var out, errb bytes.Buffer
	if code := run([]string{quickGolden}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	sections := strings.Split(out.String(), "\n\n=== ")
	if len(sections) != len(runs) {
		t.Fatalf("%d sections for %d runs:\n%s", len(sections), len(runs), out.String())
	}
	for i, r := range runs {
		header, body, _ := strings.Cut(strings.TrimPrefix(sections[i], "=== "), "\n")
		want := fmt.Sprintf("%s: %d cells, %d ms ===", r.Scenario, r.Cells, r.ElapsedMS)
		if header != want {
			t.Errorf("run %d header %q, want %q", i, header, want)
		}
		res, err := experiments.DecodeResult(r.Scenario, r.Result)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		res.Render(&text)
		if i < len(runs)-1 {
			body += "\n" // the blank line the split consumed
		}
		if body != text.String() {
			t.Errorf("%s body differs from its Render text:\n%s\nwant:\n%s", r.Scenario, body, text.String())
		}
	}
}

// TestRenderUnknownScenario: a run whose scenario this binary doesn't
// know prints its flattened metric rows under its header.
func TestRenderUnknownScenario(t *testing.T) {
	raw, _ := readGolden(t)
	renamed := bytes.Replace(raw, []byte(`"scenario": "covert"`), []byte(`"scenario": "covert-next"`), 1)
	if bytes.Equal(renamed, raw) {
		t.Fatal("covert run not found in the golden")
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, renamed, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{"=== covert-next: 12 cells, 0 ms ===\nBits ", "\nRows/0/Capacity ", "=== fig3: "} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

// TestRenderRefusesJournal: only a suite document renders; a single run
// journal is an input error.
func TestRenderRefusesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := harness.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.CellDone(harness.Cell{Backend: "local"},
		harness.CellSpec{Scenario: "fig3", Scope: "fig3", RootSeed: 1},
		harness.CellResult{Value: json.RawMessage("0.5")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 2 {
		t.Errorf("journal render exit = %d, want 2\n%s", code, out.String())
	}
	if !strings.Contains(errb.String(), "not a stbpu-suite document") {
		t.Errorf("journal refusal unexplained: %q", errb.String())
	}
}
