package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stbpu/internal/snapstore"
	"stbpu/internal/tracestore"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestMain lets this test binary double as `stbpu-suite -worker`: the
// matrix's exec rows spawn it as their workers (it is os.Executable),
// and its TCP rows start it with -worker -connect.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sets are the scenario sets the goldens and the matrix run, each with
// the flags that size it. The goldens guard bytes, not physics, so
// their sizing is trimmed below QuickScale to keep -race CI fast.
var sets = map[string][]string{
	// Float, int, bool and nested-struct JSON.
	"quick": {"-run", "fig3,thresholds,covert", "-seed", "1", "-records", "20000", "-workloads", "4", "-bits", "128", "-trials", "2"},
	// The cycle model, the SMT co-run and the re-randomization sweep.
	"cpu": {"-run", "fig4,fig5,fig6", "-seed", "1", "-records", "10000", "-workloads", "4", "-pairs", "4"},
	// Phase-boundary checkpoints (workloads) and preset warmup.
	"phases": {"-run", "workloads,warmup", "-seed", "1", "-records", "20000"},
	// The matrix adds -workload-spec with its spec file.
	"spec": {"-run", "workloads", "-seed", "11"},
	// Every cell type, so a field that loses its export on the wire shows.
	"all": {"-seed", "3", "-records", "8000", "-workloads", "2", "-pairs", "2", "-trials", "2", "-bits", "32", "-budget", "200"},
}

// setArgs is a set's command line at two workers with timing off.
func setArgs(set string, extra ...string) []string {
	args := append([]string{"-workers", "2", "-timing=false"}, sets[set]...)
	return append(args, extra...)
}

// parse parses args as main does.
func parse(t *testing.T, args []string) config {
	t.Helper()
	cfg, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGoldenSuiteOutput(t *testing.T) {
	doc, err := runSuite(context.Background(), parse(t, setArgs("quick")))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick.golden.json", doc)
}

// TestGoldenCPUFigures pins Figs. 4-6 byte for byte. The trace and
// snapshot store counters are left out: they record cache residency,
// not results.
func TestGoldenCPUFigures(t *testing.T) {
	doc, err := runSuite(context.Background(), parse(t, setArgs("cpu")))
	if err != nil {
		t.Fatal(err)
	}
	doc.TraceStore = tracestore.Stats{}
	doc.SnapStore = snapstore.Stats{}
	checkGolden(t, "cpu.golden.json", doc)
}

// checkGolden compares doc's bytes with testdata/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, doc suiteDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/stbpu-suite -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("suite output diverged from %s (%d vs %d bytes); rerun with -update if the change is intended",
			golden, buf.Len(), len(want))
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	cfg := parse(t, setArgs("quick", "-resume"))
	if _, err := runSuite(context.Background(), cfg); err == nil {
		t.Error("-resume without -journal was accepted")
	}
}

// TestJournalRefusesToClobberWithoutResume: rerunning a crashed
// journaled command without -resume must not truncate the completed
// cells the journal exists to protect.
func TestJournalRefusesToClobberWithoutResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := parse(t, setArgs("quick", "-journal", journal))
	if _, err := runSuite(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSuite(context.Background(), cfg) // same command, -resume forgotten
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("non-empty journal clobbered without -resume: err = %v", err)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused run still modified the journal")
	}
}

// TestWorkerRejectsWelcomeFlags: a worker takes the run-shaping settings
// from the coordinator's welcome, so -worker refuses them when set away
// from their defaults, naming each one, and accepts its own budgets and
// defaults spelled out (as bench/traced.go's worker argv does).
func TestWorkerRejectsWelcomeFlags(t *testing.T) {
	fs := newFlagSet(&config{})
	for _, name := range welcomeFlags {
		if fs.Lookup(name) == nil {
			t.Errorf("welcome flag -%s is not an stbpu-suite flag", name)
		}
	}
	for _, tc := range []struct {
		args []string
		want string // "" means accepted
	}{
		{[]string{"-workers=1", "-cache-bytes=5", "-snap-bytes=5", "-trace-major=true", "-snapshots=true"}, ""},
		{[]string{"-trace-dir", "/shared/traces"}, "-worker does not take -trace-dir:"},
		{[]string{"-trace-major=false", "-snap-dir", "d", "-workload-spec", "w.json"}, "-snap-dir, -trace-major, -workload-spec"},
		{[]string{"-trace-mmap", "-snapshots=false"}, "-snapshots, -trace-mmap"},
	} {
		_, err := parseArgs(append([]string{"-worker"}, tc.args...), io.Discard)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestListJSONEnumeratesScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := writeScenarioListJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal(buf.Bytes(), &infos); err != nil {
		t.Fatalf("-list-json output is not valid JSON: %v", err)
	}
	byName := map[string]scenarioInfo{}
	for _, s := range infos {
		byName[s.Name] = s
	}
	fig3, ok := byName["fig3"]
	if !ok {
		t.Fatalf("fig3 missing from %d scenarios", len(infos))
	}
	if fig3.Defaults.Records != 120_000 {
		t.Errorf("fig3 default records = %d", fig3.Defaults.Records)
	}
	if fig6 := byName["fig6"]; len(fig6.Defaults.Sweep) == 0 {
		t.Errorf("fig6 default sweep missing: %+v", fig6.Defaults)
	}
	if len(infos) < 12 {
		t.Errorf("only %d scenarios listed", len(infos))
	}
}
