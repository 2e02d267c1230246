package harness

// Subprocess execution: ExecBackend is a worker fleet whose members it
// spawns. It starts Workers copies of Command (`stbpu-suite -worker`)
// and admits each child's stdin/stdout pipes into the fleet scheduler
// RemoteBackend runs for TCP members (remote.go), without opening a
// listener, so exec members get the fleet's requeue, heartbeats, chunk
// deadline (BatchTimeout), affinity and per-worker stats. A worker
// executes a chunk from its own copy of the scenario's cell space: it
// builds the Space from the chunk's params and runs the requested
// cells, never the scenario — cells are pure functions of (scenario,
// params, scope, shard, root seed), so the worker's results are
// bit-identical to what the coordinator would have computed.
//
// Anything that can pipe stdin/stdout to a process with the same binary
// — ssh, a container runner, a job scheduler — can host a member.
//
// Settings: a worker builds one session pool from the welcome's
// Settings, the coordinator pool's, with the one constructor the
// coordinator used (Settings.NewPool), so both sides register the same
// workload specs and use the same tiers and toggles. The session pool's
// stores are process-local and persist across chunks; the coordinator's
// store is not consulted for remote cells, so a trace may be generated
// once per worker instead of once per run — deterministic generation
// keeps results identical, at the cost of duplicated generation work
// (see internal/tracestore's package comment), unless the workers share
// a trace dir. The fleet keeps that duplication per group, not per
// chunk: every locality group ships whole to one worker.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Coordinator side.

// ExecBackend executes cells on a fleet of subprocess workers speaking
// the fleet protocol on stdio, welcomed with the Settings of the Pool it
// is installed in (Pool.SetBackend). Workers are spawned on the first
// Run and live until Close; a worker that died is respawned on the next
// Run. The exported fields must be set before the first Run.
type ExecBackend struct {
	// Command is the worker argv (nil means this executable with
	// "-worker" appended — the stbpu-suite worker mode).
	Command []string
	// Env entries are appended to the inherited environment.
	Env []string
	// Workers is the subprocess count (<= 0 means 1).
	Workers int
	// BatchTimeout bounds how long one chunk may stay on a worker. A
	// worker that exceeds it is presumed hung — not dead, so no pipe
	// error would ever surface — and is killed; its chunk requeues onto
	// the rest of the fleet, and its stderr post-mortem explains the
	// run's failure if no worker is left. It also bounds a new worker's
	// handshake. <= 0 means no deadline.
	BatchTimeout time.Duration

	// fleet is the scheduler the spawned members are admitted into.
	fleet  RemoteBackend
	mu     sync.Mutex
	procs  []*procConn
	closed bool
}

// Name implements Backend.
func (b *ExecBackend) Name() string { return "exec" }

func (b *ExecBackend) setPool(p *Pool) { b.fleet.setPool(p) }

// BackendStats implements StatsReporter.
func (b *ExecBackend) BackendStats() []BackendStats {
	stats := b.fleet.BackendStats()
	stats[0].Backend = b.Name()
	return stats
}

// ensureStarted spawns a worker into every slot whose worker is missing
// or was dropped, and admits the new ones into the fleet concurrently
// (each handshake waits on a process start). A member's hello is bounded
// by BatchTimeout alone, since a slow host command (ssh, a queued job)
// may take long to start one; canceling ctx kills the unadmitted
// workers.
func (b *ExecBackend) ensureStarted(ctx context.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("exec backend is closed")
	}
	if b.fleet.pool.Load() == nil {
		return errNoPool
	}
	argv := b.Command
	if argv == nil {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("resolve worker executable: %w", err)
		}
		argv = []string{exe, "-worker"}
	}
	if len(argv) == 0 {
		return errors.New("exec backend has an empty worker command")
	}
	for len(b.procs) < max(1, b.Workers) {
		b.procs = append(b.procs, nil)
	}
	var spawned []*procConn
	for i, p := range b.procs {
		if p != nil && !p.dropped.Load() {
			continue
		}
		p, err := spawnWorker(argv, b.Env)
		if err != nil {
			for _, p := range spawned {
				p.Close() // not admitted; the next Run respawns its slot
			}
			return fmt.Errorf("spawn worker %d: %w", i, err)
		}
		b.procs[i] = p
		spawned = append(spawned, p)
	}
	errs := make([]error, len(spawned))
	var wg sync.WaitGroup
	for i, p := range spawned {
		wg.Add(1)
		go func(i int, p *procConn) {
			defer wg.Done()
			errs[i] = b.fleet.admit(p, b.BatchTimeout)
		}(i, p)
	}
	stop := context.AfterFunc(ctx, func() {
		for _, p := range spawned {
			p.Close()
		}
	})
	wg.Wait()
	if !stop() {
		// The new workers were killed: report the interrupt, not their
		// broken handshakes.
		return ctx.Err()
	}
	var first error
	for i, err := range errs {
		if err != nil {
			// Closing stdin lets a refused worker say why before it is
			// killed; its slot is respawned on the next Run.
			p := spawned[i]
			_ = p.in.Close()
			postmortem := p.postmortem()
			p.Close()
			if first == nil {
				first = fmt.Errorf("exec worker handshake: %w; %s", err, postmortem)
			}
		}
	}
	return first
}

// Run implements Backend: the batch runs on the fleet scheduler, which
// ships each locality group whole and cuts unlabeled cells by size (see
// localityChunks). Once every worker has died the run fails at once
// with the last worker's root cause.
func (b *ExecBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.fleet.wallNS.Add(int64(time.Since(start))) }()
	if len(specs) == 0 {
		return nil, nil
	}
	if err := b.ensureStarted(ctx); err != nil {
		return nil, err
	}
	return b.fleet.run(ctx, specs, b.Name(), b.BatchTimeout)
}

// Close shuts the fleet down: every worker is killed — a chunk still
// running belongs to a run that has already returned — and reaped
// before Close returns, so its CPU time is accounted to this process.
func (b *ExecBackend) Close() error {
	b.mu.Lock()
	procs := b.procs
	b.procs, b.closed = nil, true
	b.mu.Unlock()
	b.fleet.Close()
	for _, p := range procs {
		if p != nil {
			p.Close()
			<-p.exited
		}
	}
	return nil
}

// procConn is a spawned worker's end of the fleet protocol: the write
// end of its stdin and the read end of its stdout. Both are pipes from
// os.Pipe, which support deadlines, so the fleet's heartbeat and write
// timeouts apply to exec members as to TCP ones.
type procConn struct {
	cmd     *exec.Cmd
	in      *os.File
	out     *os.File
	stderr  *tailBuffer
	exited  chan struct{} // closed once cmd.Wait has returned
	waitErr error         // cmd.Wait's result, set before exited closes
	// dropped is set once the fleet let go of the worker; the next Run
	// respawns its slot.
	dropped   atomic.Bool
	closeOnce sync.Once
}

// spawnWorker starts one worker process on fresh stdio pipes.
func spawnWorker(argv, env []string) (*procConn, error) {
	childIn, in, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	out, childOut, err := os.Pipe()
	if err != nil {
		childIn.Close()
		in.Close()
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	p := &procConn{cmd: cmd, in: in, out: out, stderr: &tailBuffer{max: 4096}, exited: make(chan struct{})}
	cmd.Stdin, cmd.Stdout, cmd.Stderr = childIn, childOut, p.stderr
	err = cmd.Start()
	// The child holds its own copies of its pipe ends.
	childIn.Close()
	childOut.Close()
	if err != nil {
		in.Close()
		out.Close()
		return nil, err
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *procConn) Read(b []byte) (int, error)         { return p.out.Read(b) }
func (p *procConn) Write(b []byte) (int, error)        { return p.in.Write(b) }
func (p *procConn) SetReadDeadline(t time.Time) error  { return p.out.SetReadDeadline(t) }
func (p *procConn) SetWriteDeadline(t time.Time) error { return p.in.SetWriteDeadline(t) }

// Close kills the worker and releases the pipes. It does not wait for
// the process; exited reports that.
func (p *procConn) Close() error {
	p.closeOnce.Do(func() {
		p.dropped.Store(true)
		_ = p.cmd.Process.Kill() // fails only once the process is gone
		p.in.Close()
		p.out.Close()
	})
	return nil
}

// postmortem waits briefly for the worker to exit and returns a one-line
// diagnosis: its exit state and recent stderr.
func (p *procConn) postmortem() string {
	state := "exit state unknown"
	select {
	case <-p.exited:
		state = "exited cleanly"
		if p.waitErr != nil {
			state = p.waitErr.Error()
		}
	case <-time.After(2 * time.Second):
	}
	if tail := p.stderr.String(); tail != "" {
		return fmt.Sprintf("worker %s; recent stderr: %q", state, tail)
	}
	return "worker " + state
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

// WorkerOptions holds a worker process's own budgets. Everything that
// shapes a run — tiers, scheduling modes, workload specs — comes from
// the coordinator's welcome frame instead.
type WorkerOptions struct {
	// Workers is the in-process concurrency used to execute a chunk's
	// cells (<= 0 means GOMAXPROCS).
	Workers int
	// CacheBytes bounds the worker's process-local trace store
	// (<= 0 means tracestore.DefaultMaxBytes).
	CacheBytes int64
	// SnapBytes bounds the worker's process-local checkpoint store
	// (<= 0 means snapstore.DefaultMaxBytes).
	SnapBytes int64
}

// ServeWorker serves the fleet protocol on r/w — an exec member's stdin
// and stdout — until EOF on r (the coordinator's clean shutdown signal)
// or ctx is canceled. See serveSession. Its hello carries no name: the
// fleet labels exec members by join order alone, so the handshake's
// bytes do not vary with worker pids.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	conn := struct {
		io.Reader
		io.Writer
	}{bufio.NewReader(r), w}
	return serveSession(ctx, conn, func() {
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
	}, "", opts)
}

// serveSession is the one worker loop, on either transport: send a
// hello carrying name, build the session pool from the welcome's
// Settings and opts' budgets, then answer each work frame with a
// results frame once the chunk's spills are on disk. Heartbeats flow
// from a separate goroutine at the cadence the coordinator asked for,
// so a worker deep in a long chunk still proves liveness. closeConn
// unblocks the read loop when ctx is canceled. On a TCP connection the
// handshake and every frame write are bounded by remoteHandshakeTimeout.
func serveSession(ctx context.Context, conn io.ReadWriter, closeConn func(), name string, opts WorkerOptions) error {
	tcp, _ := conn.(net.Conn)
	if tcp != nil {
		_ = tcp.SetDeadline(time.Now().Add(remoteHandshakeTimeout))
	}
	if _, err := writeJSONFrame(conn, remoteHello{Proto: protoVersion, Name: name}); err != nil {
		return fmt.Errorf("worker: hello: %w", err)
	}
	var welcome remoteWelcome
	if _, err := readJSONFrame(conn, &welcome); err != nil {
		return fmt.Errorf("worker: welcome: %w", err)
	}
	if welcome.Proto != protoVersion {
		return fmt.Errorf("worker: coordinator speaks protocol %d, want %d", welcome.Proto, protoVersion)
	}
	if tcp != nil {
		_ = tcp.SetDeadline(time.Time{})
	}
	pool, err := welcome.NewPool(opts.Workers, 0, opts.CacheBytes, opts.SnapBytes)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}

	var wmu sync.Mutex
	send := func(m *wireMsg) error {
		payload := encodeWireMsg(m)
		wmu.Lock()
		defer wmu.Unlock()
		if tcp != nil {
			_ = tcp.SetWriteDeadline(time.Now().Add(remoteHandshakeTimeout))
		}
		return writeRawFrame(conn, payload)
	}

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			closeConn()
		case <-stop:
		}
	}()
	heartbeat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	go func() {
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(&wireMsg{kind: wireKindHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	for {
		work, _, err := readWireFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // the coordinator hung up: clean shutdown
			}
			return fmt.Errorf("worker: read work: %w", err)
		}
		if work.kind != wireKindWork {
			return fmt.Errorf("worker: frame kind %d from coordinator", work.kind)
		}
		reply := wireMsg{kind: wireKindResults, seq: work.seq}
		results, err := executeCells(ctx, work.cells, pool)
		// The chunk's spills land before its answer, so a coordinator
		// (or the next worker) that reads the tiers after the answer
		// finds them.
		pool.waitStores()
		if err != nil {
			reply.err = err.Error()
			reply.permanent = errors.Is(err, ErrPermanent)
		} else {
			reply.results = results
		}
		if err := send(&reply); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("worker: send results: %w", err)
		}
	}
}

// executeCells executes a chunk without aggregating it: it builds the
// scenario's Space from the chunk's params on the session pool,
// reseeded with the chunk's root seed, re-derives each cell's seed,
// binds the specs exactly as RunAll does, and runs them on a local
// backend as wide as the pool. The results come back in wire form,
// ready to frame. A chunk is cut from one scenario's batch, so its cells
// share one scenario, scope, params and root seed. A chunk that does
// not, or that names a scope or shard the space does not declare, fails
// whole as Permanent: every worker would fail it the same way.
func executeCells(ctx context.Context, specs []CellSpec, session *Pool) ([]CellResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	head := specs[0]
	if head.Scenario == "" {
		return nil, fmt.Errorf("spec %s/%d has no scenario: cells mapped outside RunAll are not addressable remotely", head.Scope, head.Shard)
	}
	params, err := CanonicalParams(head.Params)
	if err != nil {
		// Unencodable params are a property of the spec, not of this
		// worker: every backend would fail the chunk identically.
		return nil, Permanent(err)
	}
	for _, s := range specs[1:] {
		pj, err := CanonicalParams(s.Params)
		if err != nil {
			return nil, Permanent(err)
		}
		if s.Scenario != head.Scenario || s.Scope != head.Scope || pj != params || s.RootSeed != head.RootSeed {
			return nil, Permanent(fmt.Errorf("chunk mixes cells of %s/%s and %s/%s (params or root seed may differ too): a chunk holds one batch",
				head.Scenario, head.Scope, s.Scenario, s.Scope))
		}
	}
	scen, ok := Get(head.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered in this worker", head.Scenario)
	}
	pool := session.withRootSeed(head.RootSeed)
	sp, err := scen.Space(head.Params, pool)
	if err != nil {
		return nil, Permanent(fmt.Errorf("scenario %s: cell space: %w", scen.Name, err))
	}
	if sp.Scope != head.Scope {
		return nil, Permanent(fmt.Errorf("scenario %s declares scope %q, not %q", scen.Name, sp.Scope, head.Scope))
	}
	bound := make([]CellSpec, len(specs))
	for i, s := range specs {
		if s.Shard < 0 || s.Shard >= sp.N {
			return nil, Permanent(fmt.Errorf("%s shard %d is outside its %d-cell space", sp.Scope, s.Shard, sp.N))
		}
		s.Seed = ShardSeed(s.RootSeed, sp.Scope, s.Shard)
		bound[i] = s
	}
	sort.Slice(bound, func(i, j int) bool { return bound[i].Shard < bound[j].Shard })
	sp.bind(bound, pool.TraceMajor())
	results, err := NewLocalBackend(pool.Workers()).Run(ctx, bound)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].encodeWire()
	}
	return results, nil
}
