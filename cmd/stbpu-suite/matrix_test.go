package main

// The differential matrix. Each row is an stbpu-suite command line that
// runs one scenario set through one combination of the knobs that buy
// speed and must be invisible in results: backend, scheduling, the
// snapshot tier, the trace tier and journal resume. The rows form a
// pairwise covering array (TestMatrixCoversEveryPair): every value of
// each dimension meets every value of every other dimension in some
// row. Each row is one test, named for the check it carries besides
// the contracts below. A failure names the command line, so it
// reproduces by hand.
//
// A row runs its command once, and again when it has a directory to
// warm (-trace-dir, -snap-dir) or a journal to resume. The second run
// reuses the row's directories; a resumed run starts from the first
// run's journal cut a third of the way in, mid-line, as kill -9 leaves
// it. Each run checks the contracts its row engages:
//
//   - BC-1 results. GIVEN any row, THEN the document equals its set's
//     reference once backends, trace_store and snap_store are dropped,
//     and workers too on the one -workers 5 row. The references are
//     testdata/quick.golden.json, testdata/cpu.golden.json and a plain
//     local run of each other set.
//   - BC-2 trace tier. GIVEN -trace-dir, THEN the first run spills
//     (disk_writes > 0) and the second reads the spills instead of
//     generating (generations == 0, disk_hits > 0, and mmap_hits > 0
//     with -trace-mmap on Linux). A fleet coordinator's store sits idle,
//     so on a fleet the first run must leave spills in the shared
//     directory instead.
//   - BC-3 snapshot tier. GIVEN -snapshots=false, THEN puts == hits == 0.
//     GIVEN a local row with the tier on over a set that runs the
//     phase-structured workloads scenario, THEN puts > 0, and hits > 0
//     when model-major; with -snap-dir the first run spills
//     (disk_writes > 0), a trace-major rerun puts again but rewrites no
//     spill (disk_writes == disk_errors == 0), and a model-major rerun with -snap-bytes
//     1 restores from disk (disk_hits > 0).
//   - BC-4 fleet. GIVEN -backend exec or remote, THEN backends[0] shows
//     two joins, cells and bin1 frame bytes; the first run of a TCP fleet
//     routes chunks to their locality key's home (affinity hits > 0);
//     with -snap-dir the workers spill .snap files into the shared
//     directory.
//   - BC-5 resume. GIVEN a torn journal, THEN the resumed run's backend
//     executes cells and the journal ends up holding every cell of the
//     uninterrupted run.
//   - BC-6 sets. The spec set's rows are the spec's phases in order and
//     -list-json -workload-spec lists the spec's workload; the
//     every-scenario set runs at least 12 scenarios.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"stbpu/internal/harness"
)

// Dimension indexes into a row.
const (
	dBackend = iota
	dSched
	dSnaps
	dTier
	dJournal
	dSet
)

// dimensions lists each dimension's values, in row order. No value
// appears in two dimensions.
var dimensions = [6][]string{
	{"local", "exec", "tcp"},
	{"trace-major", "model-major"},
	{"snaps-off", "snaps-on", "snap-dir"},
	{"no-tier", "trace-dir", "trace-mmap"},
	{"fresh", "resume"},
	{"quick", "cpu", "phases", "spec", "all"},
}

// row picks one value of each dimension.
type row [6]string

// matrix maps each test that runs a row to its row.
var matrix = map[string]row{
	"TestResumeProducesIdenticalDocument":     {"local", "model-major", "snaps-off", "trace-mmap", "resume", "quick"},
	"TestGoldenOutputWorkerInvariant":         {"local", "model-major", "snaps-on", "no-tier", "fresh", "cpu"},
	"TestSnapDirSecondRunHitsDisk":            {"local", "model-major", "snap-dir", "trace-dir", "fresh", "phases"},
	"TestTraceDirSecondRunHitsDisk":           {"local", "trace-major", "snaps-off", "trace-dir", "fresh", "phases"},
	"TestMmapTierMatchesDecode":               {"local", "trace-major", "snap-dir", "trace-mmap", "fresh", "spec"},
	"TestSnapshotsOffMatchesOn":               {"local", "trace-major", "snaps-off", "no-tier", "fresh", "all"},
	"TestExecBackendMatchesLocalGolden":       {"exec", "trace-major", "snap-dir", "no-tier", "fresh", "quick"},
	"TestTraceMajorOffMatchesOn":              {"exec", "model-major", "snaps-off", "trace-dir", "resume", "cpu"},
	"TestResumeExecBackendIdentical":          {"exec", "trace-major", "snaps-on", "no-tier", "resume", "phases"},
	"TestWorkloadSpecResumeAfterKill":         {"exec", "model-major", "snaps-off", "trace-dir", "resume", "spec"},
	"TestExecResumeAllScenarios":              {"exec", "model-major", "snaps-on", "trace-mmap", "resume", "all"},
	"TestRemoteBackendMatchesLocalGolden":     {"tcp", "model-major", "snaps-on", "trace-dir", "fresh", "quick"},
	"TestRemoteFleetCPUFiguresMatchLocal":     {"tcp", "trace-major", "snap-dir", "trace-mmap", "resume", "cpu"},
	"TestRemoteFleetTraceTierMatchesLocal":    {"tcp", "trace-major", "snaps-off", "trace-mmap", "resume", "phases"},
	"TestWorkloadSpecCrossBackendDeterminism": {"tcp", "trace-major", "snaps-on", "no-tier", "fresh", "spec"},
	"TestRemoteFleetSnapshotTierMatchesLocal": {"tcp", "trace-major", "snap-dir", "trace-dir", "fresh", "all"},
}

// fiveWorkers is the one row run at -workers 5, where only the recorded
// worker counts may change.
var fiveWorkers = matrix["TestGoldenOutputWorkerInvariant"]

// args is r's command line over the directories under dir and the
// -workload-spec file spec.
func (r row) args(dir, spec string) []string {
	args := setArgs(r[dSet])
	if r == fiveWorkers {
		args = append(args, "-workers", "5")
	}
	if r[dSet] == "spec" {
		args = append(args, "-workload-spec", spec)
	}
	switch r[dBackend] {
	case "exec":
		args = append(args, "-backend", "exec")
	case "tcp":
		args = append(args, "-backend", "remote")
	}
	if r[dSched] == "model-major" {
		args = append(args, "-trace-major=false")
	}
	switch r[dSnaps] {
	case "snaps-off":
		args = append(args, "-snapshots=false")
	case "snap-dir":
		args = append(args, "-snap-dir", filepath.Join(dir, "snaps"))
	}
	if r[dTier] != "no-tier" {
		args = append(args, "-trace-dir", filepath.Join(dir, "traces"))
	}
	if r[dTier] == "trace-mmap" {
		args = append(args, "-trace-mmap")
	}
	return args
}

// TestMatrixCoversEveryPair: every value pair of every two dimensions
// appears in some row, and every row's test exists, or the row would
// never run.
func TestMatrixCoversEveryPair(t *testing.T) {
	if len(matrix) > 20 {
		t.Errorf("%d rows; keep the matrix to at most 20", len(matrix))
	}
	f, err := parser.ParseFile(token.NewFileSet(), "matrix_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			tests[fn.Name.Name] = true
		}
	}
	seen := map[[2]string]bool{}
	for name, r := range matrix {
		if !tests[name] {
			t.Errorf("row %v: no test %s runs it", r, name)
		}
		for i := range r {
			if !slices.Contains(dimensions[i], r[i]) {
				t.Errorf("row %v: %q is not a value of dimension %v", r, r[i], dimensions[i])
			}
			for j := i + 1; j < len(r); j++ {
				seen[[2]string{r[i], r[j]}] = true
			}
		}
	}
	for i := range dimensions {
		for j := i + 1; j < len(dimensions); j++ {
			for _, a := range dimensions[i] {
				for _, b := range dimensions[j] {
					if !seen[[2]string{a, b}] {
						t.Errorf("no row pairs %s with %s", a, b)
					}
				}
			}
		}
	}
}

// The rows' tests, each named for the check its row carries.

// TestResumeProducesIdenticalDocument: a local run resumed from a torn
// journal reproduces the quick golden and completes the journal.
func TestResumeProducesIdenticalDocument(t *testing.T) { runRow(t) }

// TestGoldenOutputWorkerInvariant: at -workers 5 only the recorded
// worker counts leave the CPU golden.
func TestGoldenOutputWorkerInvariant(t *testing.T) { runRow(t) }

// TestSnapDirSecondRunHitsDisk: a -snap-dir run spills checkpoints and
// a model-major rerun restores them from disk.
func TestSnapDirSecondRunHitsDisk(t *testing.T) { runRow(t) }

// TestTraceDirSecondRunHitsDisk: a -trace-dir rerun reads every trace
// from disk instead of generating it.
func TestTraceDirSecondRunHitsDisk(t *testing.T) { runRow(t) }

// TestMmapTierMatchesDecode: a -trace-mmap rerun maps the spills, and
// its trace-major -snap-dir rerun rewrites no checkpoint.
func TestMmapTierMatchesDecode(t *testing.T) { runRow(t) }

// TestSnapshotsOffMatchesOn: every scenario with the snapshot tier off
// matches the run with it on, and the tier stays untouched.
func TestSnapshotsOffMatchesOn(t *testing.T) { runRow(t) }

// TestExecBackendMatchesLocalGolden: the quick set on two exec workers
// reproduces the golden.
func TestExecBackendMatchesLocalGolden(t *testing.T) { runRow(t) }

// TestTraceMajorOffMatchesOn: model-major scheduling reproduces the CPU
// golden, which trace-major scheduling wrote.
func TestTraceMajorOffMatchesOn(t *testing.T) { runRow(t) }

// TestResumeExecBackendIdentical: exec workers finish a torn journal's
// run.
func TestResumeExecBackendIdentical(t *testing.T) { runRow(t) }

// TestWorkloadSpecResumeAfterKill: a -workload-spec run resumes from a
// torn journal on exec workers, which get the spec from the welcome.
func TestWorkloadSpecResumeAfterKill(t *testing.T) { runRow(t) }

// TestExecResumeAllScenarios: every scenario resumes on exec workers,
// so each cell type crosses the wire.
func TestExecResumeAllScenarios(t *testing.T) { runRow(t) }

// TestRemoteBackendMatchesLocalGolden: the quick set on a two-worker
// TCP fleet reproduces the golden.
func TestRemoteBackendMatchesLocalGolden(t *testing.T) { runRow(t) }

// TestRemoteFleetCPUFiguresMatchLocal: Figs. 4-6 on a TCP fleet, with
// keyed chunks routed to their locality key's home.
func TestRemoteFleetCPUFiguresMatchLocal(t *testing.T) { runRow(t) }

// TestRemoteFleetTraceTierMatchesLocal: a TCP fleet whose workers share
// the mapped trace tier.
func TestRemoteFleetTraceTierMatchesLocal(t *testing.T) { runRow(t) }

// TestWorkloadSpecCrossBackendDeterminism: a -workload-spec run on a
// TCP fleet matches the local run, as the local and exec spec rows do.
func TestWorkloadSpecCrossBackendDeterminism(t *testing.T) { runRow(t) }

// TestRemoteFleetSnapshotTierMatchesLocal: a TCP fleet whose workers
// share -snap-dir spills its checkpoints there.
func TestRemoteFleetSnapshotTierMatchesLocal(t *testing.T) { runRow(t) }

// runRow runs the calling test's row: its command, then the rerun when
// the row has a directory to warm or a journal to resume.
func runRow(t *testing.T) {
	r, ok := matrix[t.Name()]
	if !ok {
		t.Fatalf("no matrix row for %s", t.Name())
	}
	if testing.Short() && r[dBackend] != "local" {
		t.Skip("runs a worker fleet")
	}
	spec := filepath.Join(t.TempDir(), "xbackend.json")
	if err := os.WriteFile(spec, []byte(testSpecDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if r[dSet] == "spec" {
		checkSpecListed(t, spec)
	}
	ref := reference(t, r[dSet], spec)
	dir := t.TempDir()
	args := slices.Clip(r.args(dir, spec))
	journal := filepath.Join(dir, "run.jsonl")
	resume := r[dJournal] == "resume"
	first := args
	if resume {
		first = append(args, "-journal", journal)
	}
	verify(t, r, dir, first, ref, nil)
	if r[dTier] == "no-tier" && r[dSnaps] != "snap-dir" && !resume {
		return
	}
	second := args
	uninterrupted := []harness.JournalEntry{}
	if resume {
		uninterrupted = tear(t, journal)
		second = append(args, "-journal", journal, "-resume")
	}
	if r[dSnaps] == "snap-dir" && r[dSched] == "model-major" {
		second = append(second, "-snap-bytes", "1")
	}
	verify(t, r, dir, second, ref, uninterrupted)
}

// refs holds the reference documents computed so far, by set. The
// tests here run one at a time.
var refs = map[string][]byte{}

// reference returns the document set's rows must reproduce. The spec
// set's is the same for any copy of testSpecDoc.
func reference(t *testing.T, set, spec string) []byte {
	t.Helper()
	if b, ok := refs[set]; ok {
		return b
	}
	var b []byte
	if set == "quick" || set == "cpu" {
		var err error
		if b, err = os.ReadFile(filepath.Join("testdata", set+".golden.json")); err != nil {
			t.Fatal(err)
		}
	} else {
		_, b = runCLI(t, row{"local", "trace-major", "snaps-on", "no-tier", "fresh", set}.args("", spec))
	}
	refs[set] = b
	return b
}

// verify runs args, one of row r's runs, and checks every contract r
// engages. journal is nil on the first run and non-nil on the second:
// the entries of the uninterrupted run when the second resumes its torn
// journal, else empty.
func verify(t *testing.T, r row, dir string, args []string, ref []byte, journal []harness.JournalEntry) {
	t.Helper()
	fail := func(contract, format string, a ...any) {
		t.Helper()
		t.Errorf("%s: stbpu-suite %s: %s", contract, strings.Join(args, " "), fmt.Sprintf(format, a...))
	}
	doc, raw := runCLI(t, args)
	second := journal != nil
	local := r[dBackend] == "local"
	// The workloads scenario is the one that checkpoints.
	phases := r[dSet] == "phases" || r[dSet] == "spec" || r[dSet] == "all"
	snapDir := r[dSnaps] == "snap-dir"
	modelMajor := r[dSched] == "model-major"

	if got, want := normalize(t, raw, r == fiveWorkers), normalize(t, ref, r == fiveWorkers); !bytes.Equal(got, want) {
		fail("BC-1", "the document differs from the %s reference at %s", r[dSet], firstDiff(got, want))
	}

	ts := doc.TraceStore
	switch {
	case r[dTier] == "no-tier":
	case !local:
		if spills, _ := filepath.Glob(filepath.Join(dir, "traces", "*.stbt")); len(spills) == 0 {
			fail("BC-2", "the workers spilled no trace into the shared directory")
		}
	case !second && ts.DiskWrites == 0:
		fail("BC-2", "the cold run spilled no trace: %+v", ts)
	case second && (ts.Generations != 0 || ts.DiskHits == 0):
		fail("BC-2", "the warm run did not read the spills: %+v", ts)
	case second && r[dTier] == "trace-mmap" && runtime.GOOS == "linux" && ts.MmapHits == 0:
		fail("BC-2", "the warm run mapped no spill: %+v", ts)
	}

	ss := doc.SnapStore
	switch {
	case r[dSnaps] == "snaps-off":
		if ss.Puts != 0 || ss.Hits != 0 {
			fail("BC-3", "-snapshots=false still touched the tier: %+v", ss)
		}
	case !local || !phases:
	case !second && (ss.Puts == 0 || modelMajor && ss.Hits == 0):
		fail("BC-3", "the tier never engaged: %+v", ss)
	case !second && snapDir && ss.DiskWrites == 0:
		fail("BC-3", "the cold run spilled no checkpoint: %+v", ss)
	case second && snapDir && !modelMajor && (ss.Puts == 0 || ss.DiskWrites != 0 || ss.DiskErrors != 0):
		fail("BC-3", "the trace-major rerun rewrote unchanged spills: %+v", ss)
	case second && snapDir && modelMajor && ss.DiskHits == 0:
		fail("BC-3", "the model-major rerun restored nothing from disk: %+v", ss)
	}

	if !local {
		if b := doc.Backends; len(b) != 1 || b[0].Joins != 2 || b[0].Cells == 0 || b[0].WireBinaryBytes == 0 {
			fail("BC-4", "fleet stats implausible: %+v", b)
		} else if r[dBackend] == "tcp" && !second && affinityHits(b[0]) == 0 {
			fail("BC-4", "no chunk was routed to its locality key's home: %+v", b[0].Workers)
		}
		if spills, _ := filepath.Glob(filepath.Join(dir, "snaps", "*.snap")); snapDir && phases && len(spills) == 0 {
			fail("BC-4", "the workers spilled no checkpoint into the shared directory")
		}
	}

	if len(journal) > 0 {
		if len(doc.Backends) == 0 || doc.Backends[0].Cells == 0 {
			fail("BC-5", "the resumed run executed no cell: %+v", doc.Backends)
		}
		got, err := harness.ReadJournal(filepath.Join(dir, "run.jsonl"))
		if err != nil || !slices.Equal(cellKeys(got), cellKeys(journal)) {
			fail("BC-5", "the journal holds %d cells (%v), want the %d of the uninterrupted run", len(got), err, len(journal))
		}
	}

	switch r[dSet] {
	case "spec":
		var d struct {
			Runs []struct {
				Result struct{ Rows []struct{ Phase string } }
			}
		}
		if err := json.Unmarshal(raw, &d); err != nil || len(d.Runs) != 1 {
			fail("BC-6", "want one run: %v", err)
		} else if got := d.Runs[0].Result.Rows; len(got) != 2 || got[0].Phase != "calm" || got[1].Phase != "spike" {
			fail("BC-6", "phase rows %+v, want calm then spike", got)
		}
	case "all":
		if len(doc.Runs) < 12 {
			fail("BC-6", "only %d scenarios ran", len(doc.Runs))
		}
	}
}

// runCLI runs stbpu-suite in-process and returns its document, decoded
// and as written.
func runCLI(t *testing.T, args []string) (suiteDoc, []byte) {
	t.Helper()
	var out bytes.Buffer
	var stderr joiner
	err := run(args, &out, &stderr)
	for _, w := range stderr.workers {
		_ = w.Process.Kill() // it may have exited when the coordinator closed
		_ = w.Wait()
	}
	if err == nil {
		err = stderr.err
	}
	if err != nil {
		t.Fatalf("stbpu-suite %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var doc suiteDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("stbpu-suite %s: %v", strings.Join(args, " "), err)
	}
	return doc, out.Bytes()
}

// joiner is the suite's stderr in runCLI. When a -backend remote
// coordinator reports its address, two workers dial in: this test
// binary run as `stbpu-suite -worker -connect ADDR` (see TestMain).
type joiner struct {
	bytes.Buffer
	workers []*exec.Cmd
	err     error
}

func (j *joiner) Write(p []byte) (int, error) {
	if _, addr, ok := strings.Cut(string(p), "-worker -connect "); ok {
		exe, err := os.Executable()
		for i := 0; i < 2 && err == nil; i++ {
			w := exec.Command(exe, "-worker", "-connect", strings.TrimSpace(addr))
			w.Stderr = os.Stderr
			if err = w.Start(); err == nil {
				j.workers = append(j.workers, w)
			}
		}
		j.err = err
	}
	return j.Buffer.Write(p)
}

// normalize drops what may differ between places a cell runs: backend
// stats, the coordinator's store counters and, with dropWorkers, the
// recorded worker counts.
func normalize(t *testing.T, doc []byte, dropWorkers bool) []byte {
	t.Helper()
	var m map[string]any
	d := json.NewDecoder(bytes.NewReader(doc))
	d.UseNumber()
	if err := d.Decode(&m); err != nil {
		t.Fatal(err)
	}
	delete(m, "backends")
	delete(m, "trace_store")
	delete(m, "snap_store")
	if dropWorkers {
		delete(m, "workers")
		runs, _ := m["runs"].([]any)
		for _, run := range runs {
			delete(run.(map[string]any), "workers")
		}
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// firstDiff locates the first line where two documents differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return strings.TrimSpace(lines[i])
		}
		return "EOF"
	}
	return fmt.Sprintf("line %d: %q, want %q", i+1, line(g), line(w))
}

func affinityHits(b harness.BackendStats) (hits uint64) {
	for _, w := range b.Workers {
		hits += w.AffinityHits
	}
	return hits
}

// tear cuts the journal a third of the way in, in the middle of a line
// (the artifact kill -9 leaves), and returns the entries it held.
func tear(t *testing.T, path string) []harness.JournalEntry {
	t.Helper()
	full, err := harness.ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	cut := len(full) / 3
	torn := append(bytes.Join(lines[:cut], nil), lines[cut][:len(lines[cut])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	return full
}

// cellKeys lists the journaled cells' addresses, sorted.
func cellKeys(entries []harness.JournalEntry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = fmt.Sprintf("%s/%s/%d", e.Scenario, e.Scope, e.Shard)
	}
	sort.Strings(keys)
	return keys
}

// testSpecDoc is a small two-phase, two-tenant spec exercising an
// explicit weight override, a gamma arrival, a burst modifier, and
// drift — every forwarding path must reproduce it exactly.
const testSpecDoc = `{
  "name": "xbackend",
  "tenants": [
    {"name": "web", "preset": "apache2_prefork_c64", "weight": 2},
    {"name": "db", "preset": "mysql_64con_50s", "weight": 1}
  ],
  "phases": [
    {"name": "calm", "records": 6000, "switch": {"model": "gamma", "mean": 900, "shape": 2}},
    {"name": "spike", "records": 6000, "switch": {"model": "geometric", "mean": 700},
     "weights": [1, 3], "drift": 0.01,
     "burst": {"period": 2000, "len": 400, "factor": 8}}
  ]
}`

// checkSpecListed is BC-6's listing half: -list-json -workload-spec
// lists the spec's content-hashed workload.
func checkSpecListed(t *testing.T, spec string) {
	t.Helper()
	args := []string{"-list-json", "-workload-spec", spec}
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal(out.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	for _, s := range infos {
		for _, w := range s.Workloads {
			if s.Name == "workloads" && strings.HasPrefix(w, "spec:xbackend@") {
				return
			}
		}
	}
	t.Errorf("BC-6: stbpu-suite %s lists no spec:xbackend@ workload", strings.Join(args, " "))
}
