// Command stbpu-suite lists, filters, and runs the registered experiment
// scenarios on the parallel harness and emits one JSON document per run —
// root seed, worker count, per-scenario parameters, cell counts, timing,
// per-backend stats, and structured results — suitable for golden-file
// comparison and benchmarking trajectories. The document schema is
// specified in docs/SUITE_JSON.md.
//
// Usage:
//
//	stbpu-suite -list                       # registered scenarios
//	stbpu-suite -list-json                  # same, machine-readable with defaults
//	stbpu-suite -run 'fig*' -records 40000  # glob filters, scale knobs
//	stbpu-suite -run thresholds,gamma       # comma-separated filters
//	stbpu-suite -quick -seed 1 -workers 4   # QuickScale, fixed seed/pool
//	stbpu-suite -timing=false               # reproducible output bytes
//	stbpu-suite -backend exec -exec-workers 4  # cells on 4 subprocesses
//	stbpu-suite -worker                     # subprocess worker mode
//	stbpu-suite -backend remote -listen :7701  # coordinate a TCP worker fleet
//	stbpu-suite -worker -connect host:7701  # join a fleet as a network worker
//	stbpu-suite -pprof localhost:6060       # serve live profiling endpoints
//	stbpu-suite -journal run.jsonl          # stream completed cells to a journal
//	stbpu-suite -journal run.jsonl -resume  # skip cells the journal already holds
//	stbpu-suite -trace-dir ~/.cache/stbpu   # persist generated traces across runs
//	stbpu-suite -trace-dir d -trace-mmap    # map spilled traces zero-copy (unix)
//	stbpu-suite -trace-major=false          # no cell shares a computed value with another
//	stbpu-suite -snapshots=false            # force full warmup replay (no checkpoints)
//	stbpu-suite -snap-dir ~/.cache/stbpu-snaps  # persist predictor checkpoints across runs
//
// Both wire backends run one worker fleet speaking one protocol. With
// -backend exec the suite spawns `stbpu-suite -worker` subprocesses and
// speaks it on their stdin/stdout; with -backend remote it listens on
// -listen and speaks it over TCP to whatever workers have dialed in with
// -worker -connect. Either way a worker that dies mid-chunk, or holds
// one chunk past -exec-timeout, is dropped and its cells are requeued
// onto the rest of the fleet (a chunk is never on two workers at once),
// TCP workers may also join late, and every run-shaping setting reaches
// the workers in the coordinator's welcome frame. Results are
// bit-identical across backends and fleet shapes (see
// docs/ARCHITECTURE.md).
//
// With -journal every completed cell is appended to a JSONL run journal
// as it finishes; if the run dies, rerunning with -resume skips the
// journaled cells and produces a final document byte-identical (modulo
// timing and backend/trace-store stats) to an uninterrupted run, on any
// backend. Compare two runs with cmd/stbpu-report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof: registers the profiling handlers
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/snapstore"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

// suiteDoc is the one-run JSON document.
type suiteDoc struct {
	Suite   string `json:"suite"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	// ElapsedMS is total wall-clock time (0 when -timing=false).
	ElapsedMS int64            `json:"elapsed_ms"`
	Runs      []harness.Report `json:"runs"`
	// Backends reports per-backend execution stats (cells run, retries,
	// wall time; wall time is 0 when -timing=false).
	Backends []harness.BackendStats `json:"backends"`
	// TraceStore reports the shared cross-run trace cache's hit/miss/
	// generation/eviction counters for the whole run. With -backend exec
	// the coordinator's store sits idle: workers generate traces into
	// their own process-local stores.
	TraceStore tracestore.Stats `json:"trace_store"`
	// SnapStore reports the warm-state checkpoint store's counters for
	// the whole run (docs/SUITE_JSON.md). Like TraceStore, with -backend
	// exec/remote the coordinator's store sits mostly idle: workers
	// checkpoint into their own process-local stores (shared only
	// through -snap-dir's disk tier).
	SnapStore snapstore.Stats `json:"snap_store"`
}

// config carries the parsed command line: newFlagSet binds every flag
// to one of its fields, so tests parse argv exactly as main does.
type config struct {
	list, listJSON, quick, worker bool
	run, pprof, connect, out      string
	filters                       []string
	seed                          uint64
	workers                       int
	cacheBytes                    int64
	// snapBytes bounds the in-memory checkpoint store (<= 0 = default).
	snapBytes int64
	// settings are the run's settings (-trace-dir, -trace-major,
	// -trace-mmap, -snapshots, -snap-dir, and the -workload-spec
	// document parseArgs loads); the pool is built from them, and a
	// fleet welcomes its workers with the pool's.
	settings    harness.Settings
	backend     string // "local" (default), "exec", or "remote"
	execWorkers int
	// execTimeout bounds how long one chunk may stay on a fleet worker
	// (either backend); a worker that exceeds it is dropped and its chunk
	// requeued (0 = no deadline).
	execTimeout time.Duration
	// listen is the -backend remote coordinator's TCP address.
	listen string
	// workloadSpec is a JSON workload-spec file (docs/WORKLOADS.md).
	workloadSpec string
	// journal streams completed cells to this JSONL file; with resume
	// set, cells the file already holds are not re-executed.
	journal string
	resume  bool
	params  harness.Params
	timing  bool
	verbose bool
	stderr  io.Writer
}

// buildBackend installs the backend the -backend flag selects in pool;
// local keeps the pool's default in-process LocalBackend. Both fleet
// backends welcome their workers with the pool's Settings, so workers
// need no flags beyond their own process budgets.
func buildBackend(cfg config, pool *harness.Pool) error {
	switch cfg.backend {
	case "", "local":
		return nil
	case "remote":
		rb := &harness.RemoteBackend{Addr: cfg.listen, BatchTimeout: cfg.execTimeout}
		pool.SetBackend(rb)
		// Bind eagerly so the operator learns where to point workers
		// before the first batch needs them.
		addr, err := rb.Start()
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.stderr, "remote: listening on %s; join workers with: stbpu-suite -worker -connect %s\n", addr, addr)
		return nil
	case "exec":
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolve worker executable: %w", err)
		}
		// Each worker applies the coordinator's budgets per process.
		cmd := []string{exe, "-worker",
			fmt.Sprintf("-workers=%d", cfg.workers),
			fmt.Sprintf("-cache-bytes=%d", cfg.cacheBytes),
			fmt.Sprintf("-snap-bytes=%d", cfg.snapBytes)}
		execWorkers := cfg.execWorkers
		if execWorkers <= 0 {
			execWorkers = 2
		}
		pool.SetBackend(&harness.ExecBackend{Command: cmd, Workers: execWorkers, BatchTimeout: cfg.execTimeout})
		return nil
	default:
		return fmt.Errorf("unknown backend %q (want local, exec, or remote)", cfg.backend)
	}
}

// runSuite executes the selected scenarios on pool and assembles the
// document.
func runSuite(ctx context.Context, cfg config, pool *harness.Pool) (suiteDoc, error) {
	if err := buildBackend(cfg, pool); err != nil {
		return suiteDoc{}, err
	}
	defer pool.Backend().Close()
	var journal *harness.Journal
	if cfg.journal != "" {
		var err error
		if cfg.resume {
			journal, err = harness.ResumeJournal(cfg.journal)
		} else {
			// Refuse to truncate completed work: rerunning a crashed
			// journaled command without -resume (the easiest mistake to
			// make) must not destroy the very progress the journal exists
			// to protect.
			if st, statErr := os.Stat(cfg.journal); statErr == nil && st.Size() > 0 {
				return suiteDoc{}, fmt.Errorf("journal %s already holds completed cells; pass -resume to continue it or remove the file to start over", cfg.journal)
			}
			journal, err = harness.CreateJournal(cfg.journal)
		}
		if err != nil {
			return suiteDoc{}, fmt.Errorf("journal: %w", err)
		}
		defer journal.Close() // error-path close; idempotent
		pool.SetSink(journal)
		if cfg.verbose && journal.Loaded() > 0 {
			fmt.Fprintf(cfg.stderr, "journal %s: resuming past %d completed cells\n", cfg.journal, journal.Loaded())
		}
	} else if cfg.resume {
		return suiteDoc{}, fmt.Errorf("-resume requires -journal")
	}
	opts := harness.Options{
		Filters: cfg.filters,
		Params:  cfg.params,
		Timing:  cfg.timing,
	}
	if cfg.verbose {
		opts.Observer = func(c harness.Cell) {
			fmt.Fprintf(cfg.stderr, "cell %s/%d seed=%#x backend=%s %v\n", c.Scope, c.Shard, c.Seed, c.Backend, c.Elapsed.Round(0))
		}
	}
	doc := suiteDoc{Suite: "stbpu-suite", Seed: pool.RootSeed(), Workers: pool.Workers()}
	reports, err := harness.RunAll(ctx, pool, opts)
	if err != nil {
		return suiteDoc{}, err
	}
	doc.Runs = reports
	for _, r := range reports {
		doc.ElapsedMS += r.ElapsedMS
	}
	if sr, ok := pool.Backend().(harness.StatsReporter); ok {
		doc.Backends = sr.BackendStats()
	}
	if !cfg.timing {
		for i := range doc.Backends {
			doc.Backends[i].WallMS = 0
		}
	}
	doc.TraceStore = pool.Traces().Stats()
	doc.SnapStore = pool.Snaps().Stats()
	if journal != nil {
		// A journal that stopped persisting must fail the run: the caller
		// believes the file can resume this run, so a silent write failure
		// would lose exactly the cells they counted on keeping.
		if err := journal.Close(); err != nil {
			return suiteDoc{}, fmt.Errorf("journal %s: %w", cfg.journal, err)
		}
	}
	return doc, nil
}

// writeDoc marshals the document with stable indentation.
func writeDoc(w io.Writer, doc suiteDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// scenarioInfo is one -list-json entry: the machine-readable companion
// to -list, so tooling can enumerate scenarios and their default
// harness.Params without parsing the human-oriented listing.
type scenarioInfo struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Defaults    harness.Params `json:"defaults"`
	// Workloads enumerates the spec workload names registered in this
	// process (built-in fixtures plus any -workload-spec file). Only the
	// workloads scenario entry carries it.
	Workloads []string `json:"workloads,omitempty"`
}

// writeScenarioListJSON emits the registry as a JSON array in name
// order (harness.All's order).
func writeScenarioListJSON(w io.Writer) error {
	infos := make([]scenarioInfo, 0)
	for _, s := range harness.All() {
		info := scenarioInfo{Name: s.Name, Description: s.Description, Defaults: s.Defaults}
		if s.Name == "workloads" {
			info.Workloads = spec.Names()
		}
		infos = append(infos, info)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(infos)
}

// workerFlags are the flags a -worker reads: its mode, its coordinator,
// its own process budgets and its profiling listener. welcomeFlags are
// coordinator flags whose settings the welcome frame carries to workers.
var (
	workerFlags  = []string{"worker", "connect", "workers", "cache-bytes", "snap-bytes", "pprof"}
	welcomeFlags = []string{"trace-dir", "trace-major", "trace-mmap", "snapshots", "snap-dir", "workload-spec"}
)

// checkWorkerFlags rejects a -worker invocation that sets a flag
// outside workerFlags away from its default: the worker would silently
// ignore it. A flag spelled out at its default changes nothing and
// passes.
func checkWorkerFlags(fs *flag.FlagSet) error {
	var set, welcome, coordinator []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(workerFlags, f.Name) || f.Value.String() == f.DefValue {
			return
		}
		set = append(set, "-"+f.Name)
		if slices.Contains(welcomeFlags, f.Name) {
			welcome = append(welcome, "-"+f.Name)
		} else {
			coordinator = append(coordinator, "-"+f.Name)
		}
	})
	if len(set) == 0 {
		return nil
	}
	var why []string
	if len(welcome) > 0 {
		why = append(why, "the coordinator's welcome frame carries "+strings.Join(welcome, ", "))
	}
	if len(coordinator) > 0 {
		why = append(why, "only a coordinator reads "+strings.Join(coordinator, ", "))
	}
	return fmt.Errorf("-worker does not take %s: %s", strings.Join(set, ", "), strings.Join(why, "; "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "stbpu-suite:", err)
		os.Exit(1)
	}
}

// newFlagSet defines every stbpu-suite flag, each bound to a field of cfg.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("stbpu-suite", flag.ExitOnError)
	fs.BoolVar(&cfg.list, "list", false, "list registered scenarios and exit")
	fs.BoolVar(&cfg.listJSON, "list-json", false, "list registered scenarios with default params as JSON and exit")
	fs.StringVar(&cfg.run, "run", "", "comma-separated scenario glob filters (empty = all)")
	fs.Uint64Var(&cfg.seed, "seed", harness.DefaultRootSeed, "root seed; every cell seed derives from it")
	fs.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.params.Records, "records", 0, "records per workload trace (0 = scenario default)")
	fs.IntVar(&cfg.params.MaxWorkloads, "workloads", 0, "cap the workload list (0 = all)")
	fs.IntVar(&cfg.params.MaxPairs, "pairs", 0, "cap the SMT pair list (0 = all)")
	fs.IntVar(&cfg.params.Trials, "trials", 0, "repetitions for randomized measurements (0 = scenario default)")
	fs.IntVar(&cfg.params.Budget, "budget", 0, "attack scan budget (0 = scenario default)")
	fs.IntVar(&cfg.params.Bits, "bits", 0, "covert-channel bits (0 = scenario default)")
	fs.Float64Var(&cfg.params.R, "r", 0, "attack-difficulty factor (0 = scenario default)")
	fs.BoolVar(&cfg.quick, "quick", false, "use the QuickScale test/benchmark sizing")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", tracestore.DefaultMaxBytes, "byte budget for the shared cross-run trace store (<=0 = default budget)")
	fs.StringVar(&cfg.settings.TraceDir, "trace-dir", "", "persistent trace tier: spill generated traces as STBT files here and decode them on later runs (shared with fleet workers)")
	fs.BoolVar(&cfg.settings.TraceMajor, "trace-major", true, "group cells that share a computed value (a trace-major replay over one resident trace, a CPU-model timeline or baseline) so each group computes it once (=false: no cell shares a computed value with another)")
	fs.BoolVar(&cfg.settings.TraceMmap, "trace-mmap", false, "with -trace-dir: spill traces in the page-aligned STBT v2 layout and map them read-only instead of decoding (unix only; no-op elsewhere)")
	fs.BoolVar(&cfg.settings.Snapshots, "snapshots", true, "checkpoint predictor state at phase boundaries and restore it instead of replaying warmup prefixes (=false to force full replay; results are bit-identical)")
	fs.Int64Var(&cfg.snapBytes, "snap-bytes", snapstore.DefaultMaxBytes, "byte budget for the in-memory checkpoint store (<=0 = default budget)")
	fs.StringVar(&cfg.settings.SnapDir, "snap-dir", "", "persistent checkpoint tier: spill phase-boundary predictor snapshots as .snap files here and restore them on later runs (shared with workers)")
	fs.StringVar(&cfg.backend, "backend", "local", "cell execution backend: local, exec (subprocess worker fleet), or remote (TCP worker fleet)")
	fs.IntVar(&cfg.execWorkers, "exec-workers", 2, "subprocess worker count for -backend exec")
	fs.DurationVar(&cfg.execTimeout, "exec-timeout", 10*time.Minute, "-backend exec or remote: drop a worker that holds one chunk longer than this and requeue the chunk (0 = no deadline)")
	fs.StringVar(&cfg.listen, "listen", "", "-backend remote: TCP address to coordinate workers on (empty = 127.0.0.1:0)")
	fs.StringVar(&cfg.pprof, "pprof", "", "serve net/http/pprof profiling handlers on this address (works in coordinator and -worker modes), e.g. localhost:6060")
	fs.StringVar(&cfg.connect, "connect", "", "with -worker: dial this coordinator address instead of serving stdin/stdout")
	fs.BoolVar(&cfg.worker, "worker", false, "run as a fleet worker on stdin/stdout, or for the -connect coordinator; it takes only -connect, -workers, -cache-bytes, -snap-bytes and -pprof, and its run settings arrive in the coordinator's welcome")
	fs.StringVar(&cfg.workloadSpec, "workload-spec", "", "JSON workload-spec file (docs/WORKLOADS.md): register it and point the workloads scenario at it; forwarded to fleet workers")
	fs.StringVar(&cfg.journal, "journal", "", "stream completed cells to this JSONL run journal (schema: docs/SUITE_JSON.md)")
	fs.BoolVar(&cfg.resume, "resume", false, "load the -journal file first and skip cells it already holds")
	fs.BoolVar(&cfg.timing, "timing", true, "record wall-clock timing (disable for byte-stable output)")
	fs.BoolVar(&cfg.verbose, "v", false, "stream per-cell progress to stderr")
	fs.StringVar(&cfg.out, "o", "", "write the JSON document to this file (default stdout)")
	return fs
}

// parseArgs parses a command line (without the program name) into a
// config.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	cfg := config{stderr: stderr}
	fs := newFlagSet(&cfg)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.worker {
		return cfg, checkWorkerFlags(fs)
	}
	if cfg.connect != "" {
		return cfg, fmt.Errorf("-connect requires -worker")
	}
	if cfg.quick {
		cfg.params = cfg.params.Merged(experiments.QuickScale().Params())
	}
	if cfg.workloadSpec != "" {
		s, err := spec.LoadFile(cfg.workloadSpec)
		if err != nil {
			return cfg, err
		}
		cfg.settings.WorkloadSpecs = []string{string(s.Canonical())}
		// The workloads scenario resolves the spec by its registered
		// (content-hashed) workload name in every process of the run.
		if cfg.params.WorkloadSpec == "" {
			cfg.params.WorkloadSpec = s.WorkloadName()
		}
	}
	for _, f := range strings.Split(cfg.run, ",") {
		if f = strings.TrimSpace(f); f != "" {
			cfg.filters = append(cfg.filters, f)
		}
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	if cfg.pprof != "" {
		// DefaultServeMux carries the pprof handlers via the blank import.
		go func() {
			if err := http.ListenAndServe(cfg.pprof, nil); err != nil {
				fmt.Fprintf(stderr, "stbpu-suite: pprof on %s: %v\n", cfg.pprof, err)
			}
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if cfg.worker {
		opts := harness.WorkerOptions{Workers: cfg.workers, CacheBytes: cfg.cacheBytes, SnapBytes: cfg.snapBytes}
		if cfg.connect != "" {
			return harness.ServeRemoteWorker(ctx, cfg.connect, opts)
		}
		return harness.ServeWorker(ctx, os.Stdin, stdout, opts)
	}

	// The run's one pool. Building it registers the -workload-spec
	// documents, so the listings enumerate them alongside the built-in
	// fixtures.
	pool, err := cfg.settings.NewPool(cfg.workers, cfg.seed, cfg.cacheBytes, cfg.snapBytes)
	if err != nil {
		return err
	}
	if cfg.list {
		for _, s := range harness.All() {
			fmt.Fprintf(stdout, "%-18s %s\n", s.Name, s.Description)
		}
		return nil
	}
	if cfg.listJSON {
		return writeScenarioListJSON(stdout)
	}

	doc, err := runSuite(ctx, cfg, pool)
	if err != nil {
		return err
	}
	if cfg.out == "" {
		return writeDoc(stdout, doc)
	}
	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	if err := writeDoc(f, doc); err != nil {
		f.Close()
		return err
	}
	// A failed close means buffered output never hit the disk — that
	// must fail the run, or golden comparisons would trust a truncated
	// document.
	return f.Close()
}
