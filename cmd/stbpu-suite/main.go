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
//	stbpu-suite -affinity=false             # plain work sharing (no locality routing)
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
// -worker -connect. Either way workers may die mid-chunk or straggle
// (their cells are requeued or speculatively re-executed elsewhere), TCP
// workers may also join late, and every run-shaping setting reaches the
// workers in the coordinator's welcome frame. Results are bit-identical
// across backends and fleet shapes (see docs/ARCHITECTURE.md).
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

// config carries the parsed CLI knobs; factored out so tests drive the
// exact code path main uses.
type config struct {
	filters    []string
	seed       uint64
	workers    int
	cacheBytes int64
	// traceDir enables the persistent trace tier: generated traces spill
	// as STBT files and later runs (and fleet workers) decode instead of
	// regenerating.
	traceDir string
	// modelMajor disables grouping: no cell shares a computed value with
	// another. Stored inverted (like harness.Pool) so a zero-value config
	// keeps the default: grouping on.
	modelMajor bool
	// traceMmap spills traces in the page-aligned STBT v2 layout and maps
	// them read-only as columns instead of decoding (with -trace-dir).
	traceMmap bool
	// snapshotsOff disables the warm-state snapshot tier. Stored inverted
	// (like modelMajor) so a zero-value config keeps the default: on.
	snapshotsOff bool
	// snapBytes bounds the in-memory checkpoint store (<= 0 = default).
	snapBytes int64
	// snapDir enables the persistent checkpoint tier: phase-boundary
	// predictor snapshots spill as .snap files and later runs (and
	// workers sharing the directory) restore instead of replaying.
	snapDir     string
	backend     string // "local" (default), "exec", or "remote"
	execWorkers int
	// execTimeout bounds how long one chunk may stay on an exec worker;
	// a worker that exceeds it is killed and its chunk requeued (0 = no
	// deadline).
	execTimeout time.Duration
	// listen is the -backend remote coordinator's TCP address.
	listen string
	// affinityOff disables locality-aware fleet dispatch. Stored
	// inverted (like modelMajor) so a zero-value config keeps the
	// default: affinity on.
	affinityOff bool
	// listenReady, when set, receives the coordinator's bound address
	// once it is accepting workers (tests use it to learn the ephemeral
	// port before launching workers).
	listenReady func(addr string)
	// workloadSpec is a JSON workload-spec file (docs/WORKLOADS.md):
	// runSuite registers it, points the workloads scenario at it, and
	// forwards its document to fleet workers in the welcome frame.
	workloadSpec string
	// workloadSpecDoc is the loaded spec's canonical JSON (set by
	// runSuite for buildBackend's welcome frame).
	workloadSpecDoc string
	// journal streams completed cells to this JSONL file; with resume
	// set, cells the file already holds are not re-executed.
	journal string
	resume  bool
	// workerCmd/workerEnv override the subprocess command (tests re-exec
	// their own binary); nil means this executable with -worker.
	workerCmd []string
	workerEnv []string
	params    harness.Params
	timing    bool
	verbose   bool
	stderr    io.Writer
}

// buildBackend constructs the backend the -backend flag selects; nil
// means the pool's default in-process LocalBackend. Both fleet backends
// forward the run-shaping settings in the welcome frame, so workers
// need no per-worker flags beyond their own process budgets.
func buildBackend(cfg config) (harness.Backend, error) {
	traceMajor := !cfg.modelMajor
	snapshots := !cfg.snapshotsOff
	var specs []string
	if cfg.workloadSpecDoc != "" {
		specs = []string{cfg.workloadSpecDoc}
	}
	switch cfg.backend {
	case "", "local":
		return nil, nil
	case "remote":
		affinity := !cfg.affinityOff
		rb := &harness.RemoteBackend{Addr: cfg.listen, TraceDir: cfg.traceDir,
			TraceMajor: &traceMajor, TraceMmap: &cfg.traceMmap,
			Snapshots: &snapshots, SnapDir: cfg.snapDir,
			WorkloadSpecs: specs, Affinity: &affinity}
		// Bind eagerly so the operator (and tests, via listenReady) learn
		// where to point workers before the first batch needs them.
		addr, err := rb.Start()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(cfg.stderr, "remote: listening on %s; join workers with: stbpu-suite -worker -connect %s\n", addr, addr)
		if cfg.listenReady != nil {
			cfg.listenReady(addr.String())
		}
		return rb, nil
	case "exec":
		cmd := cfg.workerCmd
		if cmd == nil {
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("resolve worker executable: %w", err)
			}
			// Each worker applies the coordinator's budgets per process.
			cmd = []string{exe, "-worker",
				fmt.Sprintf("-workers=%d", cfg.workers),
				fmt.Sprintf("-cache-bytes=%d", cfg.cacheBytes),
				fmt.Sprintf("-snap-bytes=%d", cfg.snapBytes)}
		}
		execWorkers := cfg.execWorkers
		if execWorkers <= 0 {
			execWorkers = 2
		}
		return &harness.ExecBackend{Command: cmd, Env: cfg.workerEnv,
			Workers: execWorkers, BatchTimeout: cfg.execTimeout,
			TraceDir: cfg.traceDir, TraceMajor: &traceMajor, TraceMmap: &cfg.traceMmap,
			Snapshots: &snapshots, SnapDir: cfg.snapDir,
			WorkloadSpecs: specs}, nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want local, exec, or remote)", cfg.backend)
	}
}

// runSuite executes the selected scenarios and assembles the document.
func runSuite(ctx context.Context, cfg config) (suiteDoc, error) {
	if cfg.workloadSpec != "" {
		s, err := spec.LoadFile(cfg.workloadSpec)
		if err != nil {
			return suiteDoc{}, err
		}
		if err := spec.Register(s); err != nil {
			return suiteDoc{}, err
		}
		// The workloads scenario resolves the spec by its registered
		// (content-hashed) workload name in every process of the run.
		if cfg.params.WorkloadSpec == "" {
			cfg.params.WorkloadSpec = s.WorkloadName()
		}
		cfg.workloadSpecDoc = string(s.Canonical())
	}
	pool := harness.NewPool(cfg.workers, cfg.seed)
	pool.SetTraceMajor(!cfg.modelMajor)
	store := tracestore.New(cfg.cacheBytes, nil)
	store.SetMapped(cfg.traceMmap)
	if cfg.traceDir != "" {
		if err := store.SetDir(cfg.traceDir); err != nil {
			return suiteDoc{}, fmt.Errorf("trace dir %s: %w", cfg.traceDir, err)
		}
	}
	pool.SetTraceStore(store)
	pool.SetSnapshots(!cfg.snapshotsOff)
	snaps := snapstore.New(cfg.snapBytes)
	if cfg.snapDir != "" {
		if err := snaps.SetDir(cfg.snapDir); err != nil {
			return suiteDoc{}, fmt.Errorf("snap dir %s: %w", cfg.snapDir, err)
		}
	}
	pool.SetSnapStore(snaps)
	backend, err := buildBackend(cfg)
	if err != nil {
		return suiteDoc{}, err
	}
	if backend != nil {
		pool.SetBackend(backend)
		defer backend.Close()
	}
	var journal *harness.Journal
	if cfg.journal != "" {
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
	doc.TraceStore = store.Stats()
	doc.SnapStore = snaps.Stats()
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

// checkWorkerFlags rejects a -worker invocation that sets a run-shaping
// flag away from its default: a worker takes those settings from the
// coordinator's welcome frame, so the flag would silently lose. A flag
// spelled out at its default changes nothing and passes.
func checkWorkerFlags(fs *flag.FlagSet) error {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "trace-dir", "trace-major", "trace-mmap", "snapshots", "snap-dir", "workload-spec":
			if f.Value.String() != f.DefValue {
				set = append(set, "-"+f.Name)
			}
		}
	})
	if len(set) > 0 {
		return fmt.Errorf("-worker does not take %s: the coordinator's welcome frame carries those settings, so set them there", strings.Join(set, ", "))
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stbpu-suite:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list registered scenarios and exit")
		listJSON  = flag.Bool("list-json", false, "list registered scenarios with default params as JSON and exit")
		runF      = flag.String("run", "", "comma-separated scenario glob filters (empty = all)")
		seed      = flag.Uint64("seed", harness.DefaultRootSeed, "root seed; every cell seed derives from it")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		records   = flag.Int("records", 0, "records per workload trace (0 = scenario default)")
		workloads = flag.Int("workloads", 0, "cap the workload list (0 = all)")
		pairs     = flag.Int("pairs", 0, "cap the SMT pair list (0 = all)")
		trials    = flag.Int("trials", 0, "repetitions for randomized measurements (0 = scenario default)")
		budget    = flag.Int("budget", 0, "attack scan budget (0 = scenario default)")
		bits      = flag.Int("bits", 0, "covert-channel bits (0 = scenario default)")
		rF        = flag.Float64("r", 0, "attack-difficulty factor (0 = scenario default)")
		quick     = flag.Bool("quick", false, "use the QuickScale test/benchmark sizing")
		cacheB    = flag.Int64("cache-bytes", tracestore.DefaultMaxBytes, "byte budget for the shared cross-run trace store (<=0 = default budget)")
		traceDir  = flag.String("trace-dir", "", "persistent trace tier: spill generated traces as STBT files here and decode them on later runs (shared with fleet workers)")
		traceMaj  = flag.Bool("trace-major", true, "group cells that share a computed value (a trace-major replay over one resident trace, a CPU-model timeline or baseline) so each group computes it once (=false: no cell shares a computed value with another)")
		traceMmap = flag.Bool("trace-mmap", false, "with -trace-dir: spill traces in the page-aligned STBT v2 layout and map them read-only instead of decoding (unix only; no-op elsewhere)")
		snapsF    = flag.Bool("snapshots", true, "checkpoint predictor state at phase boundaries and restore it instead of replaying warmup prefixes (=false to force full replay; results are bit-identical)")
		snapB     = flag.Int64("snap-bytes", snapstore.DefaultMaxBytes, "byte budget for the in-memory checkpoint store (<=0 = default budget)")
		snapDir   = flag.String("snap-dir", "", "persistent checkpoint tier: spill phase-boundary predictor snapshots as .snap files here and restore them on later runs (shared with workers)")
		backend   = flag.String("backend", "local", "cell execution backend: local, exec (subprocess worker fleet), or remote (TCP worker fleet)")
		execW     = flag.Int("exec-workers", 2, "subprocess worker count for -backend exec")
		execTO    = flag.Duration("exec-timeout", 10*time.Minute, "-backend exec: kill a worker that holds one chunk longer than this and requeue the chunk (0 = no deadline)")
		listen    = flag.String("listen", "", "-backend remote: TCP address to coordinate workers on (empty = 127.0.0.1:0)")
		affinity  = flag.Bool("affinity", true, "-backend remote: prefer dispatching each chunk to the worker whose caches are warm for its workload (=false for plain work sharing; results are bit-identical)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof profiling handlers on this address (works in coordinator and -worker modes), e.g. localhost:6060")
		connect   = flag.String("connect", "", "with -worker: dial this coordinator address instead of serving stdin/stdout")
		worker    = flag.Bool("worker", false, "run as a fleet worker on stdin/stdout, or for the -connect coordinator; only -workers, -cache-bytes and -snap-bytes apply, the rest arrives in the coordinator's welcome")
		specF     = flag.String("workload-spec", "", "JSON workload-spec file (docs/WORKLOADS.md): register it and point the workloads scenario at it; forwarded to fleet workers")
		journalF  = flag.String("journal", "", "stream completed cells to this JSONL run journal (schema: docs/SUITE_JSON.md)")
		resume    = flag.Bool("resume", false, "load the -journal file first and skip cells it already holds")
		timing    = flag.Bool("timing", true, "record wall-clock timing (disable for byte-stable output)")
		verbose   = flag.Bool("v", false, "stream per-cell progress to stderr")
		out       = flag.String("o", "", "write the JSON document to this file (default stdout)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// DefaultServeMux carries the pprof handlers via the blank import.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "stbpu-suite: pprof on %s: %v\n", *pprofAddr, err)
			}
		}()
	}

	if *worker {
		if err := checkWorkerFlags(flag.CommandLine); err != nil {
			return err
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		opts := harness.WorkerOptions{Workers: *workers, CacheBytes: *cacheB, SnapBytes: *snapB}
		if *connect != "" {
			return harness.ServeRemoteWorker(ctx, *connect, opts)
		}
		return harness.ServeWorker(ctx, os.Stdin, os.Stdout, opts)
	}
	if *connect != "" {
		return fmt.Errorf("-connect requires -worker")
	}

	if *specF != "" && (*list || *listJSON) {
		// Register the user spec so the listings enumerate it alongside
		// the built-in fixtures.
		s, err := spec.LoadFile(*specF)
		if err != nil {
			return err
		}
		if err := spec.Register(s); err != nil {
			return err
		}
	}
	if *list {
		for _, s := range harness.All() {
			fmt.Printf("%-18s %s\n", s.Name, s.Description)
		}
		return nil
	}
	if *listJSON {
		return writeScenarioListJSON(os.Stdout)
	}

	cfg := config{
		seed:         *seed,
		workers:      *workers,
		cacheBytes:   *cacheB,
		traceDir:     *traceDir,
		modelMajor:   !*traceMaj,
		traceMmap:    *traceMmap,
		snapshotsOff: !*snapsF,
		snapBytes:    *snapB,
		snapDir:      *snapDir,
		backend:      *backend,
		execWorkers:  *execW,
		execTimeout:  *execTO,
		listen:       *listen,
		affinityOff:  !*affinity,
		workloadSpec: *specF,
		journal:      *journalF,
		resume:       *resume,
		timing:       *timing,
		verbose:      *verbose,
		stderr:       os.Stderr,
		params: harness.Params{
			Records:      *records,
			MaxWorkloads: *workloads,
			MaxPairs:     *pairs,
			Trials:       *trials,
			Budget:       *budget,
			Bits:         *bits,
			R:            *rF,
		},
	}
	if *quick {
		cfg.params = cfg.params.Merged(experiments.QuickScale().Params())
	}
	if *runF != "" {
		for _, f := range strings.Split(*runF, ",") {
			if f = strings.TrimSpace(f); f != "" {
				cfg.filters = append(cfg.filters, f)
			}
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	doc, err := runSuite(ctx, cfg)
	if err != nil {
		return err
	}
	if *out == "" {
		return writeDoc(os.Stdout, doc)
	}
	f, err := os.Create(*out)
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
