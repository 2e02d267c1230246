package harness

// Subprocess execution: ExecBackend ships CellSpec batches to worker
// processes (`stbpu-suite -worker`) over length-prefixed frames on
// stdin/stdout (JSON, or the negotiated binary codec — see wire.go)
// and merges the CellResults they send back. A worker
// executes a spec by looking the scenario up in its own registry and
// re-running the scenario's decomposition with a capture backend that
// runs only the requested shards — cells are pure functions of
// (scenario, params, scope, shard, root seed), so the worker's results
// are bit-identical to what the coordinator would have computed.
//
// The protocol is the building block for multi-machine runs: anything
// that can pipe stdin/stdout to a process with the same binary — ssh, a
// container runner, a job scheduler — can host a worker.
//
// Cache locality: each worker process generates its own traces into a
// process-local tracestore.Store that persists across batches. The
// coordinator's store is not consulted for remote cells, so a trace may
// be generated once per worker instead of once per run — deterministic
// generation keeps results identical, at the cost of duplicated
// generation work (see internal/tracestore's package comment). Run
// keeps that duplication per group, not per chunk: every locality group
// ships whole to one worker.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"stbpu/internal/snapstore"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

// maxFrameBytes bounds a protocol frame so a corrupt length prefix
// cannot trigger a giant allocation.
const maxFrameBytes = 256 << 20

// execHello opens the exec stdio wire: the coordinator's first frame
// carries no cells, only the codecs it speaks. A bare/old worker
// treats it as an empty batch and answers a plain response with no
// codec — the coordinator then stays on JSON for the session.
type execHello struct {
	Codecs []string `json:"codecs,omitempty"`
}

// workerRequest is one coordinator → worker frame.
type workerRequest struct {
	// Hello, when set, makes this a handshake frame (no cells).
	Hello *execHello `json:"hello,omitempty"`
	Cells []CellSpec `json:"cells"`
}

// workerResponse is one worker → coordinator frame. Err reports a
// batch-level failure (unknown scenario, params mismatch); per-cell
// failures travel inside Results. Permanent marks Err as a
// deterministic failure of the batch itself (see ErrPermanent), which
// the coordinator must not requeue onto another backend.
type workerResponse struct {
	// Codec answers a hello with the frame codec the worker selected
	// (empty = JSON); absent outside handshakes.
	Codec     string       `json:"codec,omitempty"`
	Results   []CellResult `json:"results,omitempty"`
	Err       string       `json:"err,omitempty"`
	Permanent bool         `json:"permanent,omitempty"`
}

// writeFrame emits a 4-byte big-endian length followed by the JSON
// encoding of v.
func writeFrame(w io.Writer, v any) error {
	_, err := writeJSONFrame(w, v)
	return err
}

// writeJSONFrame is writeFrame reporting the payload size, for the
// per-codec byte accounting.
func writeJSONFrame(w io.Writer, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return len(payload), writeRawFrame(w, payload)
}

// readFrame reads one length-prefixed JSON frame into v. A clean EOF
// before the header returns io.EOF; EOF mid-frame returns
// io.ErrUnexpectedEOF.
func readFrame(r io.Reader, v any) error {
	_, err := readJSONFrame(r, v)
	return err
}

// readJSONFrame is readFrame reporting the payload size, for the
// per-codec byte accounting.
func readJSONFrame(r io.Reader, v any) (int, error) {
	payload, err := readRawFrame(r)
	if err != nil {
		return 0, err
	}
	return len(payload), json.Unmarshal(payload, v)
}

// ---------------------------------------------------------------------------
// Coordinator side.

// ExecBackend executes cells on a fleet of subprocess workers speaking
// the length-prefixed JSON protocol. Workers are spawned lazily on the
// first Run and live until Close; a worker that died is respawned on the
// next Run.
type ExecBackend struct {
	// Command is the worker argv (nil means this executable with
	// "-worker" appended — the stbpu-suite worker mode).
	Command []string
	// Env entries are appended to the inherited environment.
	Env []string
	// Workers is the subprocess count (<= 0 means 1).
	Workers int
	// BatchTimeout bounds one batch round-trip. A worker that exceeds it
	// is presumed hung — not dead, so no pipe error would ever surface —
	// and is killed, failing the batch with its stderr post-mortem so a
	// router can requeue the chunk. <= 0 means no deadline.
	BatchTimeout time.Duration
	// Wire pins the frame codec: "json" forces JSON frames (skipping
	// the handshake), empty negotiates the binary codec per worker.
	Wire string

	mu     sync.Mutex
	procs  []*execWorker
	closed bool

	sink   atomic.Pointer[cellNotify]
	cells  atomic.Uint64
	wallNS atomic.Int64
	wire   wireStats
}

// Name implements Backend.
func (b *ExecBackend) Name() string { return "exec" }

func (b *ExecBackend) setSink(fn cellNotify) { b.sink.Store(&fn) }

func (b *ExecBackend) notify(c Cell, spec CellSpec, res CellResult) {
	if fn := b.sink.Load(); fn != nil && *fn != nil {
		(*fn)(c, spec, res)
	}
}

// BackendStats implements StatsReporter.
func (b *ExecBackend) BackendStats() []BackendStats {
	s := BackendStats{
		Backend: b.Name(),
		Cells:   b.cells.Load(),
		WallMS:  time.Duration(b.wallNS.Load()).Milliseconds(),
	}
	b.wire.fill(&s)
	return []BackendStats{s}
}

// ensureStarted spawns (or respawns) the worker fleet.
func (b *ExecBackend) ensureStarted() ([]*execWorker, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("exec backend is closed")
	}
	n := b.Workers
	if n <= 0 {
		n = 1
	}
	argv := b.Command
	if argv == nil {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("resolve worker executable: %w", err)
		}
		argv = []string{exe, "-worker"}
	}
	if len(argv) == 0 {
		return nil, errors.New("exec backend has an empty worker command")
	}
	for len(b.procs) < n {
		b.procs = append(b.procs, nil)
	}
	for i := 0; i < n; i++ {
		if b.procs[i] != nil && !b.procs[i].dead.Load() {
			continue
		}
		w, err := startExecWorker(i, argv, b.Env, b.BatchTimeout, b.Wire, &b.wire)
		if err != nil {
			return nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		b.procs[i] = w
	}
	return append([]*execWorker(nil), b.procs[:n]...), nil
}

// Run implements Backend: the batch splits into chunks pulled by the
// worker fleet; a dead or misbehaving worker fails the whole batch with
// a root-caused error (MultiBackend can then requeue it elsewhere). A
// locality group (see Locality) is one chunk, so the traces, timelines
// and baselines its cells share are built once, on one worker;
// unlabeled cells are cut by size (see localityChunks).
func (b *ExecBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.wallNS.Add(int64(time.Since(start))) }()
	if len(specs) == 0 {
		return nil, nil
	}
	procs, err := b.ensureStarted()
	if err != nil {
		return nil, err
	}

	chunks := localityChunks(specs, len(procs), false)
	queue := make(chan []CellSpec, len(chunks))
	for _, c := range chunks {
		queue <- c
	}
	close(queue)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	specByShard := make(map[int]CellSpec, len(specs))
	for _, s := range specs {
		specByShard[s.Shard] = s
	}

	var (
		mu      sync.Mutex
		merged  []CellResult
		firstEr error
	)
	var wg sync.WaitGroup
	for _, w := range procs {
		wg.Add(1)
		go func(w *execWorker) {
			defer wg.Done()
			for chunk := range queue {
				if ctx.Err() != nil {
					return
				}
				results, err := w.roundTrip(ctx, chunk)
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					cancel()
					return
				}
				mu.Lock()
				merged = append(merged, results...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if firstEr != nil {
		// Nothing from this batch is counted or streamed: a router
		// (MultiBackend) will requeue the whole batch elsewhere, and
		// cells observed here would then be double-counted in
		// Pool.Cells()/Report.Cells, breaking cross-backend byte
		// identity on exactly the requeue path.
		return nil, firstEr
	}
	sortResultsByShard(merged)
	for i := range merged {
		r := &merged[i]
		b.cells.Add(1)
		s := specByShard[r.Shard]
		b.notify(Cell{
			Backend: b.Name(), Scope: s.Scope, Shard: r.Shard, Seed: s.Seed,
			Elapsed: time.Duration(r.ElapsedUS) * time.Microsecond, Err: r.CellErr(),
		}, s, *r)
	}
	return merged, nil
}

// Close shuts the worker fleet down: stdin close asks each worker to
// exit cleanly, and stragglers are killed.
func (b *ExecBackend) Close() error {
	b.mu.Lock()
	procs := b.procs
	b.procs = nil
	b.closed = true
	b.mu.Unlock()
	var first error
	for _, w := range procs {
		if w == nil {
			continue
		}
		if err := w.shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// execWorker is one subprocess speaking the frame protocol. A worker
// handles one round-trip at a time (guarded by mu), so frames never
// interleave even when Run is called concurrently.
type execWorker struct {
	id      int
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	stderr  *tailBuffer
	timeout time.Duration // per-batch deadline; 0 = none
	wireCfg string        // backend Wire config ("json" pins JSON)
	stats   *wireStats

	mu        sync.Mutex
	helloDone bool
	codec     string // negotiated frame codec ("" = JSON)
	dead      atomic.Bool
	killOnce  sync.Once
	waitOnce  sync.Once
	waitRes   error
}

func startExecWorker(id int, argv, env []string, timeout time.Duration, wireCfg string, stats *wireStats) (*execWorker, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	tail := &tailBuffer{max: 4096}
	cmd.Stderr = tail
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &execWorker{id: id, cmd: cmd, in: in, out: bufio.NewReader(out), stderr: tail,
		timeout: timeout, wireCfg: wireCfg, stats: stats}, nil
}

// handshake negotiates the frame codec on the worker's first
// round-trip (always JSON frames). An old worker treats the hello as
// an empty batch and answers with no codec, leaving the session on
// JSON; a worker that died on its first frame surfaces through the
// same root-caused error path as any other protocol failure.
func (w *execWorker) handshake() error {
	if w.helloDone {
		return nil
	}
	w.helloDone = true
	if w.wireCfg == wireForceJSON {
		return nil
	}
	n, err := writeJSONFrame(w.in, workerRequest{Hello: &execHello{Codecs: wireOffer(w.wireCfg)}})
	if err != nil {
		return err
	}
	w.stats.count("", n)
	var resp workerResponse
	rn, err := readJSONFrame(w.out, &resp)
	if err != nil {
		return err
	}
	w.stats.count("", rn)
	if resp.Err != "" {
		return fmt.Errorf("hello rejected: %s", resp.Err)
	}
	if resp.Codec == wireCodecBinary {
		w.codec = wireCodecBinary
	}
	return nil
}

// writeRequest frames req in the session's negotiated codec.
func (w *execWorker) writeRequest(req workerRequest) error {
	if w.codec == wireCodecBinary {
		payload := encodeWireMsg(&wireMsg{kind: wireKindWork, cells: req.Cells})
		w.stats.count(w.codec, len(payload))
		return writeRawFrame(w.in, payload)
	}
	n, err := writeJSONFrame(w.in, req)
	w.stats.count("", n)
	return err
}

// readResponse reads one response frame in the negotiated codec.
func (w *execWorker) readResponse(resp *workerResponse) error {
	if w.codec == wireCodecBinary {
		payload, err := readRawFrame(w.out)
		if err != nil {
			return err
		}
		w.stats.count(w.codec, len(payload))
		m, err := decodeWireMsg(payload)
		if err != nil {
			return err
		}
		if m.kind != wireKindResults {
			return fmt.Errorf("unexpected frame kind %d (want results)", m.kind)
		}
		resp.Results, resp.Err, resp.Permanent = m.results, m.err, m.permanent
		return nil
	}
	n, err := readJSONFrame(w.out, resp)
	w.stats.count("", n)
	return err
}

// roundTrip sends one batch and waits for its response. Any transport
// failure marks the worker dead and returns a root-caused error carrying
// the worker's exit state and recent stderr, so a killed subprocess
// surfaces as a diagnosis instead of a hang.
func (w *execWorker) roundTrip(ctx context.Context, chunk []CellSpec) ([]CellResult, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead.Load() {
		return nil, fmt.Errorf("exec worker %d is dead", w.id)
	}

	type outcome struct {
		resp workerResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		if o.err = w.handshake(); o.err == nil {
			if o.err = w.writeRequest(workerRequest{Cells: chunk}); o.err == nil {
				o.err = w.readResponse(&o.resp)
			}
		}
		done <- o
	}()

	// A hung worker never errors the pipe, so the context and the batch
	// deadline are the only ways out of this select. The deadline kills
	// the worker (surfacing its stderr) and fails the batch so a router
	// can requeue the chunk on a healthy backend.
	var deadline <-chan time.Time
	if w.timeout > 0 {
		t := time.NewTimer(w.timeout)
		defer t.Stop()
		deadline = t.C
	}
	var o outcome
	select {
	case o = <-done:
	case <-ctx.Done():
		w.fail() // unblocks the writer/reader goroutine
		<-done
		return nil, ctx.Err()
	case <-deadline:
		postmortem := w.fail() // kills the worker, unblocking the goroutine
		<-done
		return nil, fmt.Errorf("exec worker %d: batch of %d cells exceeded the %v batch timeout: %s",
			w.id, len(chunk), w.timeout, postmortem)
	}
	if o.err != nil {
		return nil, fmt.Errorf("exec worker %d: protocol failed (%v): %s", w.id, o.err, w.fail())
	}
	if o.resp.Err != "" {
		err := fmt.Errorf("exec worker %d: %s", w.id, o.resp.Err)
		if o.resp.Permanent {
			// The worker is alive and the protocol intact: the batch
			// itself is broken, identically so everywhere.
			err = Permanent(err)
		}
		return nil, err
	}
	return o.resp.Results, nil
}

// fail marks the worker dead, kills the process, and returns a one-line
// post-mortem (exit state plus recent stderr).
func (w *execWorker) fail() string {
	w.dead.Store(true)
	w.killOnce.Do(func() {
		if w.cmd.Process != nil {
			_ = w.cmd.Process.Kill()
		}
	})
	state := "exit state unknown"
	done := make(chan struct{})
	go func() {
		w.waitOnce.Do(func() { w.waitRes = w.cmd.Wait() })
		close(done)
	}()
	select {
	case <-done:
		if w.waitRes != nil {
			state = w.waitRes.Error()
		} else {
			state = "exited cleanly"
		}
	case <-time.After(2 * time.Second):
	}
	if tail := w.stderr.String(); tail != "" {
		return fmt.Sprintf("worker %s; recent stderr: %q", state, tail)
	}
	return "worker " + state
}

// shutdown closes stdin (the worker's clean-exit signal) and reaps the
// process, killing it if it lingers.
func (w *execWorker) shutdown() error {
	w.dead.Store(true)
	_ = w.in.Close()
	done := make(chan struct{})
	go func() {
		w.waitOnce.Do(func() { w.waitRes = w.cmd.Wait() })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		w.killOnce.Do(func() {
			if w.cmd.Process != nil {
				_ = w.cmd.Process.Kill()
			}
		})
		<-done
	}
	return nil
}

// tailBuffer keeps the last max bytes written, for stderr post-mortems.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// ---------------------------------------------------------------------------
// Worker side.

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Workers is the in-process concurrency used to execute a batch's
	// cells (<= 0 means GOMAXPROCS).
	Workers int
	// CacheBytes bounds the worker's process-local trace store
	// (<= 0 means tracestore.DefaultMaxBytes).
	CacheBytes int64
	// TraceDir, when nonempty, points the worker's trace store at the
	// shared persistent tier (tracestore.SetDir): workers decode traces
	// another process already generated instead of regenerating them.
	TraceDir string
	// TraceMajor toggles trace-major grouping in the worker's capture
	// runs (nil means the default, on). Pure scheduling: results are
	// bit-identical either way.
	TraceMajor *bool
	// TraceMmap switches the worker's disk tier into zero-copy mmap
	// mode (tracestore.Store.SetMapped). Only meaningful with TraceDir.
	TraceMmap bool
	// Snapshots toggles the warm-state snapshot tier in the worker's
	// capture runs (nil means the default, on). Pure acceleration:
	// results are bit-identical either way.
	Snapshots *bool
	// SnapBytes bounds the worker's process-local checkpoint store
	// (<= 0 means snapstore.DefaultMaxBytes).
	SnapBytes int64
	// SnapDir, when nonempty, points the worker's checkpoint store at
	// the shared persistent tier (snapstore.SetDir): workers restore
	// warm predictor state another process already computed instead of
	// replaying warmup prefixes.
	SnapDir string
	// WorkloadSpecs holds raw JSON workload-spec documents
	// (internal/trace/spec) to register before serving cells, so the
	// worker resolves the same spec workload names the coordinator
	// schedules. Content-hashed names make registration idempotent.
	WorkloadSpecs []string
	// Wire pins the worker's frame codec: "json" refuses the binary
	// codec in handshakes (the worker then behaves like a bare/old
	// worker); empty accepts whatever the coordinator offers.
	Wire string
}

// registerWorkloadSpecs parses and registers raw spec documents a
// worker received via flags or the coordinator's welcome frame.
func registerWorkloadSpecs(docs []string) error {
	for _, doc := range docs {
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			return fmt.Errorf("worker: workload spec: %w", err)
		}
		if err := spec.Register(s); err != nil {
			return fmt.Errorf("worker: workload spec %q: %w", s.Name, err)
		}
	}
	return nil
}

// traceMajorOn resolves the tri-state flag (nil = default on).
func (o WorkerOptions) traceMajorOn() bool {
	return o.TraceMajor == nil || *o.TraceMajor
}

// snapshotsOn resolves the tri-state flag (nil = default on).
func (o WorkerOptions) snapshotsOn() bool {
	return o.Snapshots == nil || *o.Snapshots
}

// cellEnv bundles the per-process execution environment capture runs
// inherit: the stores cells share and the scheduling/acceleration
// toggles, none of which may change results.
type cellEnv struct {
	workers    int
	store      *tracestore.Store
	snaps      *snapstore.Store
	traceMajor bool
	snapshots  bool
}

// cellEnvFor builds the env a serving worker uses for every batch.
func cellEnvFor(opts WorkerOptions, store *tracestore.Store, snaps *snapstore.Store) cellEnv {
	return cellEnv{
		workers:    opts.Workers,
		store:      store,
		snaps:      snaps,
		traceMajor: opts.traceMajorOn(),
		snapshots:  opts.snapshotsOn(),
	}
}

// prefetch starts background warmup of the stores for the locality
// keys of a remote work frame's hints: trace columns materialize via
// the tracestore's singleflight entry (so a later GetColumns joins
// rather than duplicates the work) and matching snapshot spills are
// pulled into the page cache. A pair key warms both of its traces.
// Hints arrive from another process, so a name that is no workload is
// skipped rather than handed to the store to fail generating.
// Advisory and asynchronous — results never depend on it.
func (env cellEnv) prefetch(keys []string) {
	for _, k := range keys {
		names, records := localityTraces(k)
		for _, name := range names {
			if _, err := tracestore.PresetProfile(name, records); err != nil {
				continue
			}
			if env.store != nil {
				env.store.Prefetch(name, records)
			}
			if env.snaps != nil {
				env.snaps.Prefetch(name)
			}
		}
	}
}

// ServeWorker runs the worker loop: read a CellSpec batch frame, execute
// it, write the CellResult frame, until EOF on r. Workload traces come
// from one process-local store that persists across batches.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	if err := registerWorkloadSpecs(opts.WorkloadSpecs); err != nil {
		return err
	}
	store, err := newWorkerStore(opts)
	if err != nil {
		return err
	}
	snaps, err := newWorkerSnapStore(opts)
	if err != nil {
		return err
	}
	env := cellEnvFor(opts, store, snaps)
	codec := ""
	for {
		payload, err := readRawFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // clean shutdown: coordinator closed stdin
			}
			return fmt.Errorf("worker: read request: %w", err)
		}
		var req workerRequest
		if len(payload) > 0 && payload[0] == binMagic {
			m, err := decodeWireMsg(payload)
			if err != nil {
				return fmt.Errorf("worker: decode request: %w", err)
			}
			req.Cells = m.cells
		} else if err := json.Unmarshal(payload, &req); err != nil {
			return fmt.Errorf("worker: read request: %w", err)
		}

		if req.Hello != nil {
			// Handshake: pick the codec for subsequent frames; the answer
			// itself is always JSON.
			codec = negotiateCodec(req.Hello.Codecs, opts.Wire)
			if err := writeFrame(bw, workerResponse{Codec: codec}); err != nil {
				return fmt.Errorf("worker: write hello response: %w", err)
			}
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("worker: flush hello response: %w", err)
			}
			continue
		}

		var resp workerResponse
		results, err := executeCells(ctx, req.Cells, env)
		if err != nil {
			resp.Err = err.Error()
			resp.Permanent = errors.Is(err, ErrPermanent)
		} else {
			resp.Results = results
		}
		if codec == wireCodecBinary {
			out := encodeWireMsg(&wireMsg{kind: wireKindResults, results: resp.Results, err: resp.Err, permanent: resp.Permanent})
			err = writeRawFrame(bw, out)
		} else {
			err = writeFrame(bw, resp)
		}
		if err != nil {
			return fmt.Errorf("worker: write response: %w", err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("worker: flush response: %w", err)
		}
	}
}

// newWorkerStore builds the process-local trace store a worker executes
// cells against, wiring the persistent disk tier when configured.
func newWorkerStore(opts WorkerOptions) (*tracestore.Store, error) {
	store := tracestore.New(opts.CacheBytes, nil)
	store.SetMapped(opts.TraceMmap)
	if opts.TraceDir != "" {
		if err := store.SetDir(opts.TraceDir); err != nil {
			return nil, fmt.Errorf("worker: trace dir %s: %w", opts.TraceDir, err)
		}
	}
	return store, nil
}

// newWorkerSnapStore builds the process-local checkpoint store a worker
// executes cells against, wiring the persistent disk tier when
// configured.
func newWorkerSnapStore(opts WorkerOptions) (*snapstore.Store, error) {
	snaps := snapstore.New(opts.SnapBytes)
	if opts.SnapDir != "" {
		if err := snaps.SetDir(opts.SnapDir); err != nil {
			return nil, fmt.Errorf("worker: snap dir %s: %w", opts.SnapDir, err)
		}
	}
	return snaps, nil
}

// errCellsCaptured aborts a scenario Run once the capture backend has
// executed every requested shard; the decomposition after the Map call
// never runs on the worker (aggregation happens on the coordinator).
var errCellsCaptured = errors.New("harness: requested cells captured")

// ExecuteCells executes wire specs in this process: specs group by
// (scenario, scope, params, root seed), and each group re-runs its
// scenario's decomposition with a capture backend that executes only the
// requested shards on a workers-wide local pool. Results come back in
// wire form, ready to frame.
func ExecuteCells(ctx context.Context, specs []CellSpec, workers int, store *tracestore.Store) ([]CellResult, error) {
	return executeCells(ctx, specs, cellEnv{workers: workers, store: store, traceMajor: true, snapshots: true})
}

// executeCells is ExecuteCells with the capture pools' full environment
// explicit (serving workers plumb it from WorkerOptions).
func executeCells(ctx context.Context, specs []CellSpec, env cellEnv) ([]CellResult, error) {
	type groupKey struct {
		scenario, scope, params string
		root                    uint64
	}
	keyOf := func(s CellSpec) (groupKey, error) {
		pj, err := CanonicalParams(s.Params)
		if err != nil {
			// Unencodable params are a property of the spec, not of this
			// worker: every backend would fail the batch identically.
			return groupKey{}, Permanent(err)
		}
		return groupKey{scenario: s.Scenario, scope: s.Scope, params: pj, root: s.RootSeed}, nil
	}
	groups := map[groupKey][]CellSpec{}
	var order []groupKey
	for _, s := range specs {
		if s.Scenario == "" {
			return nil, fmt.Errorf("spec %s/%d has no scenario: cells mapped outside RunAll are not addressable remotely", s.Scope, s.Shard)
		}
		k, err := keyOf(s)
		if err != nil {
			return nil, err
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}

	var out []CellResult
	for _, k := range order {
		group := groups[k]
		scen, ok := Get(k.scenario)
		if !ok {
			return nil, fmt.Errorf("scenario %q is not registered in this worker", k.scenario)
		}
		results, err := captureScenarioCells(ctx, scen, group, env)
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// captureScenarioCells re-runs one scenario's decomposition and captures
// the requested shards of the requested scope.
func captureScenarioCells(ctx context.Context, scen Scenario, group []CellSpec, env cellEnv) ([]CellResult, error) {
	scope := group[0].Scope
	params := group[0].Params
	want := make(map[int]bool, len(group))
	for _, s := range group {
		want[s.Shard] = true
	}
	cap := &captureBackend{scope: scope, want: want, inner: NewLocalBackend(env.workers)}
	pool := NewPool(env.workers, group[0].RootSeed)
	pool.SetTraceMajor(env.traceMajor)
	pool.SetSnapshots(env.snapshots)
	if env.store != nil {
		pool.SetTraceStore(env.store)
	}
	if env.snaps != nil {
		pool.SetSnapStore(env.snaps)
	}
	pool.SetBackend(cap)
	// Let the scenario's own MapTraceMajor call group only the shards
	// this batch asked for (pure scheduling; see traceMajorWantKey).
	_, err := scen.Run(withTraceMajorWant(ctx, scope, want), params, pool)
	pool.endScenario()
	if !cap.captured {
		// Both shapes are deterministic scenario bugs — the decomposition
		// itself is broken for these params, on any backend — so they are
		// marked Permanent: requeueing the batch elsewhere would only
		// repeat the failure across the whole fleet.
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, Permanent(fmt.Errorf("scenario %s failed before reaching scope %q: %w", scen.Name, scope, err))
		}
		return nil, Permanent(fmt.Errorf("scenario %s never mapped scope %q (params mismatch?)", scen.Name, scope))
	}
	if len(cap.results) != len(want) {
		// A canceled context also stops the batch early — report the
		// interrupt, not a bogus decomposition diagnosis.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A failing cell legitimately stops the batch early; only a
		// clean-but-short batch means the worker's decomposition disagrees
		// with the coordinator's.
		failed := false
		for _, r := range cap.results {
			if r.Err != "" {
				failed = true
				break
			}
		}
		if !failed {
			return nil, Permanent(fmt.Errorf("scenario %s scope %q produced %d of %d requested cells (cell space mismatch)",
				scen.Name, scope, len(cap.results), len(want)))
		}
	}
	return cap.results, nil
}

// captureBackend intercepts the Map call for one scope: it executes only
// the wanted shards, stores their wire-encoded results, and aborts the
// scenario Run with errCellsCaptured. Map calls for other scopes (a
// multi-scope scenario) execute fully so later scopes stay reachable.
type captureBackend struct {
	scope string
	want  map[int]bool
	inner *LocalBackend

	captured bool
	results  []CellResult
}

func (c *captureBackend) Name() string { return "capture" }

func (c *captureBackend) Close() error { return nil }

func (c *captureBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	if len(specs) == 0 || specs[0].Scope != c.scope {
		return c.inner.Run(ctx, specs)
	}
	wanted := make([]CellSpec, 0, len(c.want))
	for _, s := range specs {
		if c.want[s.Shard] {
			wanted = append(wanted, s)
		}
	}
	results, err := c.inner.Run(ctx, wanted)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].encodeWire()
	}
	c.captured = true
	c.results = results
	return nil, errCellsCaptured
}
