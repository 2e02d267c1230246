// Command bench is stbpu's end-to-end benchmark. It drives the
// stbpu-suite binary through five workloads as real subprocess
// invocations, one at a time, and reports host-time metrics per
// workload, checking every document it produces against a reference
// digest. A traced in-process pass and direct layer probes then
// attribute the time to layers. See README.md.
//
// Run it through bench/run.sh, which builds both binaries first:
//
//	bash bench/run.sh --workload replay --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh -seed 1 -o .bench_build/set1.json
//	bash bench/run.sh -compare set1.json set2.json
//	bash bench/run.sh -update-refs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"stbpu/internal/harness"
)

// minReps is the fewest timed reps a -workload run makes, however short
// -seconds is, so there is always a median; setReps is the timed reps
// per workload of a -o set.
const (
	minReps = 3
	setReps = 5
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		root       = fs.String("root", ".", "repository root")
		suite      = fs.String("suite", "", "stbpu-suite binary to drive (set by run.sh)")
		work       = fs.String("work", "", "work directory for documents and tier directories (set by run.sh)")
		workloadF  = fs.String("workload", "", "measure this workload for -seconds and print one JSON result line")
		seed       = fs.Uint64("seed", harness.DefaultRootSeed, "root seed of every invocation")
		seconds    = fs.Int("seconds", 15, "with -workload: how long to run timed reps")
		traceF     = fs.Int("trace", 0, "with -workload: 1 reports per-layer metrics (adds the traced pass and probes), 0 end-to-end metrics")
		out        = fs.String("o", "", "run every workload, interleaved, and write the full set document here")
		compare    = fs.Bool("compare", false, "compare two set documents named as arguments; exit 1 if they disagree")
		updateRefs = fs.Bool("update-refs", false, "recompute the committed reference digests (bench/testdata/refs.json) with oracle runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkCatalog(e2eMetrics, layerMetrics()); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two set documents")
		}
		a, err := readSet(fs.Arg(0))
		if err != nil {
			return err
		}
		b, err := readSet(fs.Arg(1))
		if err != nil {
			return err
		}
		if !compareSets(a, b, stdout) {
			return errors.New("sets disagree")
		}
		return nil
	}
	if *suite == "" || *work == "" {
		return errors.New("-suite and -work are required; run through bench/run.sh")
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *updateRefs:
		t, err := oracleRefs(ctx, *suite, *work)
		if err != nil {
			return err
		}
		return writeRefs(*root, t)
	case *workloadF != "":
		w, err := workloadByName(*workloadF)
		if err != nil {
			return err
		}
		if *traceF != 0 && *traceF != 1 {
			return fmt.Errorf("-trace %d, want 0 or 1", *traceF)
		}
		return runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traceF == 1, *suite, *work, *root, refs, stdout)
	case *out != "":
		return runSet(ctx, *seed, *suite, *work, *root, refs, *out, stdout)
	}
	return errors.New("nothing to do: give -workload, -o, -compare or -update-refs")
}

// env stamps a result with what it was measured on.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	// Reps is the timed reps per workload (-o), or 0 for a time-boxed
	// -workload run; each workload also had one discarded warm-up rep.
	Reps    int       `json:"reps"`
	Seconds float64   `json:"seconds,omitempty"`
	Time    time.Time `json:"time"`
}

func stamp(root string, seed uint64, reps int, seconds time.Duration) env {
	return env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit(root), Seed: seed, Reps: reps, Seconds: seconds.Seconds(), Time: time.Now().UTC()}
}

// gitCommit reads the checked-out commit from .git without running git,
// which would search parent directories when root is not a repository.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs")) // absent: no packed refs
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// setDoc is the output of a full set (-o).
type setDoc struct {
	Env       env              `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

// workloadResult is the one-line result of a -workload run.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload measures one workload for d (at least minReps reps) and
// prints its end-to-end metrics, or with traced its per-layer ones, as
// the last line of stdout. The full report goes to report.json in the
// workload's work directory.
func runWorkload(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool,
	suite, work, root string, refs refTable, stdout io.Writer) error {
	r := newRunner(w, seed, suite, work, refs)
	if err := r.prepare(ctx); err != nil {
		return err
	}
	deadline := time.Now().Add(d)
	for len(r.ok) < minReps || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.rep(ctx)
	}
	rep := r.report(ctx, traced)
	doc := setDoc{Env: stamp(root, seed, 0, d), Workloads: []workloadReport{rep}}
	if err := writeJSON(filepath.Join(r.dir, "report.json"), doc); err != nil {
		return err
	}
	res := workloadResult{Correct: r.correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metricValue{}}
	defs, vals := e2eMetrics, rep.E2E
	if traced {
		defs, vals = layerMetrics(), rep.Layer
	}
	for _, def := range defs {
		res.Metrics[def.Name] = metricValue{Value: vals[def.Name].Value, Unit: def.Unit}
	}
	logf("%s: %d reps, wall_s %.4f, setup_s %.5f, correct=%t", w.name, len(r.ok),
		rep.E2E["wall_s"].Value, rep.E2E["setup_s"].Value, res.Correct)
	return json.NewEncoder(stdout).Encode(res)
}

// runSet runs every workload: warm-ups first, then reps interleaved
// round-robin so slow drift on the host spreads over all workloads, then
// one traced pass each. It writes the set document to out and fails if
// any workload failed a check.
func runSet(ctx context.Context, seed uint64, suite, work, root string, refs refTable, out string, stdout io.Writer) error {
	runners := make([]*runner, len(workloads))
	for i, w := range workloads {
		runners[i] = newRunner(w, seed, suite, work, refs)
		if err := runners[i].prepare(ctx); err != nil {
			return err
		}
	}
	for i := 0; i < setReps; i++ {
		for _, r := range runners {
			if err := ctx.Err(); err != nil {
				return err
			}
			r.rep(ctx)
		}
		logf("rep %d/%d done", i+1, setReps)
	}
	doc := setDoc{Env: stamp(root, seed, setReps, 0)}
	correct := true
	for _, r := range runners {
		doc.Workloads = append(doc.Workloads, r.report(ctx, true))
		correct = correct && r.correct()
	}
	if err := writeJSON(out, doc); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-11s", "workload")
	for _, d := range e2eMetrics {
		fmt.Fprintf(stdout, " %12s", d.Name)
	}
	fmt.Fprintln(stdout)
	for _, rep := range doc.Workloads {
		fmt.Fprintf(stdout, "%-11s", rep.Name)
		for _, d := range e2eMetrics {
			fmt.Fprintf(stdout, " %12.5g", rep.E2E[d.Name].Value)
		}
		fmt.Fprintln(stdout)
	}
	if !correct {
		return errors.New("a workload failed its output checks; see errors in " + out)
	}
	return nil
}

// oracleRefs computes reference digests for refSeeds with oracle runs.
func oracleRefs(ctx context.Context, suite, work string) (refTable, error) {
	t := refTable{}
	for _, seed := range refSeeds {
		key := fmt.Sprint(seed)
		t[key] = map[string]string{}
		for _, w := range workloads {
			r := newRunner(w, seed, suite, work, nil)
			if err := os.MkdirAll(r.dir, 0o755); err != nil {
				return nil, err
			}
			out := filepath.Join(r.dir, "oracle.json")
			_, doc, err := r.invokeSuite(ctx, w.oracleArgs(seed, out), out, warmupLimit)
			if err != nil {
				return nil, fmt.Errorf("%s oracle: %w", w.name, err)
			}
			if t[key][w.name], err = digest(doc); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
