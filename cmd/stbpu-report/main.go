// Command stbpu-report prints a suite document as text tables, and
// compares two runs of the suite metric by metric and gates on
// regressions — the building block for a CI perf/accuracy gate and the
// replacement for manual jq archaeology over suite documents.
//
// Usage:
//
//	stbpu-report suite.json                     # every run as its text table
//	stbpu-report old.json new.json              # per-metric deltas
//	stbpu-report -threshold 0.05 old new        # fail on >5% relative change
//	stbpu-report -json old new                  # machine-readable diff
//	stbpu-report run-a.jsonl run-b.jsonl        # raw run journals work too
//	stbpu-report -timing run.jsonl              # per-scope wall-time summary
//	stbpu-report -timing suite.json             # per-backend fleet/wire summary
//
// A single suite document prints each run under a header naming its
// scenario, cell count and elapsed_ms: the Render text of its result
// (decoded through experiments.DecodeResult), or its flattened metric
// rows when this binary doesn't know the scenario.
//
// To diff, each input is a stbpu-suite JSON document (the -o output) or a
// run journal (the -journal JSONL file; schema in docs/SUITE_JSON.md).
// Suite documents flatten through the typed results pipeline
// (internal/experiments' Tabler implementations); unknown scenarios and
// journal cell values flatten generically, numeric leaf by numeric
// leaf, so the tool keeps working on documents newer than itself.
//
// With -timing the single input is either a run journal — the tool
// aggregates each cell's recorded elapsed_us into per-(scenario,
// scope) wall-time summaries, the scheduling diagnostic for spotting
// which scopes dominate a sweep and how skewed their cells are — or a
// suite document, rendering its backends block instead: per-worker
// cells, locality-affinity hits/misses, and per-codec wire byte counts.
//
// Exit status: 0 when every metric matches within the threshold (a run
// diffed against itself always exits 0 with zero deltas), 1 when a
// metric exceeds it or — by default — when metrics exist on only one
// side (a run that silently lost scenarios must not compare green;
// -missing allow tolerates intentionally different sets), 2 on usage
// or input errors. The default threshold is 0 — any metric change
// fails — because same-seed runs of this suite are deterministic
// replicas; raise it when comparing across seeds or intentionally
// different configurations.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/results"
)

// suiteRun is one run of a suite document: its harness report, with
// the result kept raw until its scenario's decoder reads it.
type suiteRun struct {
	harness.Report
	Result json.RawMessage `json:"result"`
}

// suiteDocIn is the loosely-parsed suite document.
type suiteDocIn struct {
	Suite    string                 `json:"suite"`
	Runs     []suiteRun             `json:"runs"`
	Backends []harness.BackendStats `json:"backends"`
}

// readDoc reads path as a suite document; ok is false when it parses
// as something else (a run journal, say).
func readDoc(path string) (doc suiteDocIn, ok bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return suiteDocIn{}, false, err
	}
	ok = json.Unmarshal(b, &doc) == nil && doc.Suite == "stbpu-suite"
	return doc, ok, nil
}

// loadTable flattens one input file — suite document or run journal —
// into a metrics table.
func loadTable(path string) (results.Table, error) {
	doc, ok, err := readDoc(path)
	if err != nil {
		return results.Table{}, err
	}
	if ok {
		return tableFromDoc(doc)
	}
	entries, err := harness.ReadJournal(path)
	if err != nil {
		return results.Table{}, fmt.Errorf("%s is neither a stbpu-suite document nor a run journal: %w", path, err)
	}
	return tableFromJournal(entries), nil
}

// tableFromDoc flattens a suite document through the typed pipeline,
// falling back to generic JSON flattening for scenarios this binary
// doesn't know.
func tableFromDoc(doc suiteDocIn) (results.Table, error) {
	var out results.Table
	for _, run := range doc.Runs {
		res, err := decodeRun(run)
		if err != nil {
			return results.Table{}, err
		}
		out.Rows = append(out.Rows, res.Table().WithScenario(run.Scenario).Rows...)
	}
	out.Sort()
	return out, nil
}

// renderDoc prints every run of a suite document in document order: a
// header naming the scenario, its cell count and elapsed_ms, then the
// result's text.
func renderDoc(w io.Writer, doc suiteDocIn) error {
	for i, run := range doc.Runs {
		res, err := decodeRun(run)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "=== %s: %d cells, %d ms ===\n", run.Scenario, run.Cells, run.ElapsedMS)
		res.Render(w)
	}
	return nil
}

// decodeRun decodes a run's result into its scenario's aggregate, or
// into flatRows when this binary doesn't know the scenario.
func decodeRun(run suiteRun) (experiments.Result, error) {
	if res, err := experiments.DecodeResult(run.Scenario, run.Result); err == nil {
		return res, nil
	}
	var v any
	if err := json.Unmarshal(run.Result, &v); err != nil {
		return nil, fmt.Errorf("scenario %s: undecodable result: %w", run.Scenario, err)
	}
	var t results.Table
	flattenJSON(&t, "", v)
	return flatRows(t), nil
}

// flatRows is a result this binary has no type for, flattened numeric
// leaf by numeric leaf; it renders one metric per line.
type flatRows results.Table

// Table implements results.Tabler.
func (f flatRows) Table() results.Table { return results.Table(f) }

// Render implements harness.Renderer.
func (f flatRows) Render(w io.Writer) {
	g := results.Grid{LabelWidth: 40}
	for _, r := range f.Rows {
		g.Row(w, r.Metric, fmt.Sprintf("%14.6g", r.Value))
	}
}

// tableFromJournal flattens journal entries cell by cell: every numeric
// leaf of a cell's value becomes one metric, addressed by scope/shard
// (plus params and root seed when the journal mixes several, so cells
// from different configurations never collide or shadow each other).
// Duplicate full addresses (a resumed journal appended over its own
// prefix) keep the first occurrence, matching harness.ResumeJournal.
func tableFromJournal(entries []harness.JournalEntry) results.Table {
	// One journal usually holds one configuration; only ambiguous label
	// components are included, so the common case stays readable and two
	// same-config journals key identically.
	multiParams, multiSeeds := map[string]bool{}, map[uint64]bool{}
	for _, e := range entries {
		multiParams[journalParams(e)] = true
		multiSeeds[e.RootSeed] = true
	}
	var out results.Table
	seen := map[string]bool{}
	for _, e := range entries {
		params := journalParams(e)
		addr := journalAddr(e)
		if seen[addr] {
			continue
		}
		seen[addr] = true
		var v any
		if err := json.Unmarshal(e.Value, &v); err != nil {
			continue // a value this binary cannot parse still isn't comparable
		}
		var t results.Table
		flattenJSON(&t, "", v)
		kv := []string{"scope", e.Scope, "shard", results.Itoa(e.Shard)}
		if len(multiSeeds) > 1 {
			kv = append(kv, "root_seed", fmt.Sprint(e.RootSeed))
		}
		if len(multiParams) > 1 {
			kv = append(kv, "params", params)
		}
		cell := results.Labels(kv...)
		for _, r := range t.Rows {
			metric := r.Metric
			if metric == "" {
				metric = "value"
			}
			out.Rows = append(out.Rows, results.Row{Scenario: e.Scenario, Cell: cell, Metric: metric, Value: r.Value})
		}
	}
	out.Sort()
	return out
}

// journalParams collapses an entry's params to the canonical string
// ("?" when unmarshalable state somehow round-tripped).
func journalParams(e harness.JournalEntry) string {
	pj, err := harness.CanonicalParams(e.Params)
	if err != nil {
		return "?"
	}
	return pj
}

// journalAddr is an entry's full cell address in comparable form — the
// single dedup key every journal consumer in this binary shares, so
// the diff and -timing paths can never disagree on which duplicate of
// a resumed journal's cell wins.
func journalAddr(e harness.JournalEntry) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%s", e.Scenario, e.Scope, e.Shard, e.RootSeed, journalParams(e))
}

// flattenJSON walks an arbitrary decoded JSON value and emits one row
// per numeric (or boolean, as 0/1) leaf, with the slash-joined path as
// the metric name.
func flattenJSON(t *results.Table, path string, v any) {
	join := func(elem string) string {
		if path == "" {
			return elem
		}
		return path + "/" + elem
	}
	switch x := v.(type) {
	case float64:
		t.Add("", path, x)
	case bool:
		t.Add("", path, results.Bool01(x))
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			flattenJSON(t, join(k), x[k])
		}
	case []any:
		for i, e := range x {
			flattenJSON(t, join(results.Itoa(i)), e)
		}
	}
	// Strings and nulls are labels, not metrics: identity already lives
	// in the path.
}

// timingReport aggregates journal elapsed_us per (scenario, scope) and
// renders the summary sorted by total wall time (ties alphabetical), so
// the scope dominating the run reads first. Duplicate cell addresses (a
// resumed journal appended over its own prefix) keep the first
// occurrence, matching harness.ResumeJournal and tableFromJournal.
func timingReport(w io.Writer, path string, entries []harness.JournalEntry) {
	type agg struct {
		label string
		cells int
		total int64
		min   int64
		max   int64
	}
	byScope := map[string]*agg{}
	seen := map[string]bool{}
	kept := 0
	for _, e := range entries {
		addr := journalAddr(e)
		if seen[addr] {
			continue
		}
		seen[addr] = true
		kept++
		label := e.Scenario + "/" + e.Scope
		a := byScope[label]
		if a == nil {
			a = &agg{label: label, min: math.MaxInt64}
			byScope[label] = a
		}
		a.cells++
		a.total += e.ElapsedUS
		if e.ElapsedUS < a.min {
			a.min = e.ElapsedUS
		}
		if e.ElapsedUS > a.max {
			a.max = e.ElapsedUS
		}
	}
	scopes := make([]*agg, 0, len(byScope))
	var grand int64
	for _, a := range byScope {
		scopes = append(scopes, a)
		grand += a.total
	}
	sort.Slice(scopes, func(i, j int) bool {
		if scopes[i].total != scopes[j].total {
			return scopes[i].total > scopes[j].total
		}
		return scopes[i].label < scopes[j].label
	})

	ms := func(us int64) string { return fmt.Sprintf("%12.1f", float64(us)/1e3) }
	fmt.Fprintf(w, "stbpu-report: timing of %s (%d cells, %d scopes, %.1f ms total cell time)\n",
		path, kept, len(scopes), float64(grand)/1e3)
	if len(scopes) == 0 {
		return
	}
	fmt.Fprintln(w)
	g := results.Grid{LabelWidth: 32}
	g.Row(w, "scope", fmt.Sprintf("%8s", "cells"),
		fmt.Sprintf("%12s", "total ms"), fmt.Sprintf("%12s", "mean ms"),
		fmt.Sprintf("%12s", "min ms"), fmt.Sprintf("%12s", "max ms"))
	for _, a := range scopes {
		g.Row(w, a.label, fmt.Sprintf("%8d", a.cells),
			ms(a.total), ms(a.total/int64(a.cells)), ms(a.min), ms(a.max))
	}
}

// backendsReport renders a suite document's per-backend execution
// stats — the fleet diagnostic: per-worker cells, locality-affinity
// hits and misses, and per-codec wire bytes.
func backendsReport(w io.Writer, path string, doc suiteDocIn) {
	fmt.Fprintf(w, "stbpu-report: backends of %s (%d backend(s))\n", path, len(doc.Backends))
	for _, b := range doc.Backends {
		fmt.Fprintf(w, "\n%s: %d cells, %d retries, %d ms wall", b.Backend, b.Cells, b.Retries, b.WallMS)
		if b.Joins+b.Leaves > 0 {
			fmt.Fprintf(w, ", %d joins, %d leaves", b.Joins, b.Leaves)
		}
		fmt.Fprintln(w)
		if b.WireJSONBytes+b.WireBinaryBytes > 0 {
			fmt.Fprintf(w, "  wire: %d JSON frame bytes, %d binary frame bytes\n", b.WireJSONBytes, b.WireBinaryBytes)
		}
		if len(b.Workers) == 0 {
			continue
		}
		g := results.Grid{LabelWidth: 32}
		g.Row(w, "  worker", fmt.Sprintf("%8s", "cells"),
			fmt.Sprintf("%9s", "aff hits"), fmt.Sprintf("%10s", "aff misses"))
		for _, ws := range b.Workers {
			g.Row(w, "  "+ws.Worker, fmt.Sprintf("%8d", ws.Cells),
				fmt.Sprintf("%9d", ws.AffinityHits), fmt.Sprintf("%10d", ws.AffinityMisses))
		}
	}
}

// summarize prints one input: a suite document's text tables, or with
// timing its backends block or a run journal's per-scope wall time.
func summarize(w io.Writer, path string, timing bool) error {
	doc, ok, err := readDoc(path)
	switch {
	case err != nil:
		return err
	case ok && timing:
		backendsReport(w, path, doc)
		return nil
	case ok:
		return renderDoc(w, doc)
	case !timing:
		return fmt.Errorf("%s is not a stbpu-suite document; a run journal can only be diffed or summarized with -timing", path)
	}
	entries, err := harness.ReadJournal(path)
	if err != nil {
		return err
	}
	timingReport(w, path, entries)
	return nil
}

// report renders the diff and returns the number of threshold
// violations; a non-nil error means the output itself could not be
// produced (tooling must not see a silent empty diff).
func report(w io.Writer, oldPath, newPath string, d results.DiffResult, threshold float64, maxRows int, asJSON bool) (int, error) {
	violations := d.Violations(threshold)
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		err := enc.Encode(struct {
			Old        string          `json:"old"`
			New        string          `json:"new"`
			Threshold  float64         `json:"threshold"`
			Compared   int             `json:"compared"`
			Changed    []results.Delta `json:"changed"`
			Violations int             `json:"violations"`
			OnlyOld    []results.Row   `json:"only_old,omitempty"`
			OnlyNew    []results.Row   `json:"only_new,omitempty"`
		}{oldPath, newPath, threshold, len(d.Deltas), d.Changed(), len(violations), d.OnlyOld, d.OnlyNew})
		return len(violations), err
	}

	changed := d.Changed()
	fmt.Fprintf(w, "stbpu-report: %s -> %s\n", oldPath, newPath)
	fmt.Fprintf(w, "%d metrics compared, %d changed, %d exceed threshold %g, %d only in old, %d only in new\n",
		len(d.Deltas), len(changed), len(violations), threshold, len(d.OnlyOld), len(d.OnlyNew))
	if len(changed) > 0 {
		fmt.Fprintln(w)
		g := results.Grid{LabelWidth: 64}
		g.Row(w, "  metric", fmt.Sprintf("%14s", "old"), fmt.Sprintf("%14s", "new"),
			fmt.Sprintf("%14s", "delta"), fmt.Sprintf("%10s", "rel"))
		shown := 0
		for _, x := range changed {
			if shown >= maxRows {
				fmt.Fprintf(w, "  ... %d more changed metrics not shown (-max-rows)\n", len(changed)-shown)
				break
			}
			shown++
			mark := " "
			if math.Abs(x.Rel) > threshold {
				mark = "!"
			}
			label := mark + " " + deltaLabel(x.Row)
			g.Row(w, label, fmt.Sprintf("%14.6g", x.Old), fmt.Sprintf("%14.6g", x.New),
				fmt.Sprintf("%+14.6g", x.Diff), relString(x.Rel))
		}
	}
	for _, r := range d.OnlyOld {
		fmt.Fprintf(w, "- only in old: %s\n", deltaLabel(r))
	}
	for _, r := range d.OnlyNew {
		fmt.Fprintf(w, "+ only in new: %s\n", deltaLabel(r))
	}
	return len(violations), nil
}

// deltaLabel renders a row key for humans.
func deltaLabel(r results.Row) string {
	parts := make([]string, 0, 3)
	if r.Scenario != "" {
		parts = append(parts, r.Scenario)
	}
	if r.Cell != "" {
		parts = append(parts, r.Cell)
	}
	parts = append(parts, r.Metric)
	return strings.Join(parts, " ")
}

// relString formats a relative change, keeping ±Inf readable.
func relString(rel float64) string {
	if math.IsInf(rel, 0) {
		if rel > 0 {
			return fmt.Sprintf("%10s", "+inf")
		}
		return fmt.Sprintf("%10s", "-inf")
	}
	return fmt.Sprintf("%+9.3f%%", rel*100)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind testable plumbing; it returns the process exit
// status (0 clean, 1 violations, 2 errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stbpu-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 0, "max tolerated |relative change| per metric (0 = any change fails)")
	missing := fs.String("missing", "fail", "metrics present in only one input: fail (exit 1) or allow")
	asJSON := fs.Bool("json", false, "emit the diff as JSON")
	maxRows := fs.Int("max-rows", 100, "cap the changed-metric rows printed (text mode)")
	timing := fs.Bool("timing", false, "summarize one input instead of diffing: per-scope wall time from a run journal, or the fleet/wire backends block from a suite document")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: stbpu-report <suite.json>")
		fmt.Fprintln(stderr, "       stbpu-report [flags] <old> <new>")
		fmt.Fprintln(stderr, "       stbpu-report -timing <run.jsonl | suite.json>")
		fmt.Fprintln(stderr, "inputs: stbpu-suite JSON documents (-o) or run journals (-journal)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *timing || fs.NArg() == 1 {
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		if err := summarize(stdout, fs.Arg(0), *timing); err != nil {
			fmt.Fprintln(stderr, "stbpu-report:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	if *threshold < 0 {
		fmt.Fprintln(stderr, "stbpu-report: -threshold must be >= 0")
		return 2
	}
	if *missing != "fail" && *missing != "allow" {
		fmt.Fprintf(stderr, "stbpu-report: -missing must be fail or allow, not %q\n", *missing)
		return 2
	}
	oldPath, newPath := fs.Arg(0), fs.Arg(1)
	oldTable, err := loadTable(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "stbpu-report:", err)
		return 2
	}
	newTable, err := loadTable(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "stbpu-report:", err)
		return 2
	}
	d := results.Diff(oldTable, newTable)
	violations, err := report(stdout, oldPath, newPath, d, *threshold, *maxRows, *asJSON)
	if err != nil {
		fmt.Fprintln(stderr, "stbpu-report: write diff:", err)
		return 2
	}
	status := 0
	if violations > 0 {
		fmt.Fprintf(stderr, "stbpu-report: %d metric(s) exceed the %g threshold\n", violations, *threshold)
		status = 1
	}
	// A gate that compares green while whole scenarios went missing is
	// worse than no gate: one-sided metrics fail by default. Comparing
	// intentionally different scenario sets is -missing allow.
	if onesided := len(d.OnlyOld) + len(d.OnlyNew); onesided > 0 && *missing == "fail" {
		fmt.Fprintf(stderr, "stbpu-report: %d metric(s) present in only one input (-missing allow to tolerate)\n", onesided)
		status = 1
	}
	return status
}
