package harness

// The worker fleet: RemoteBackend is the one coordinator for every
// wire run. Its members are worker processes speaking the fleet
// protocol — a JSON hello/welcome handshake, then bin1 work, results
// and heartbeat frames (see wire.go). Members dial in over TCP
// (`stbpu-suite -worker -connect host:port`) and may join or leave at
// any point in a run, or, under ExecBackend (exec.go), are
// subprocesses spawned on stdio and admitted without a listener. Every
// member is welcomed with the Settings of the Pool the fleet is
// installed in (Pool.SetBackend), its only source of run settings; a
// fleet installed in no pool refuses to start and admits no worker.
//
//   - Batches split into chunks pulled by whichever workers are live;
//     a worker that joins mid-run starts pulling immediately. Each
//     locality group is one chunk, and dispatch is locality-aware: a
//     chunk prefers the worker whose trace/snapshot caches are already
//     warm for its key (the worker that last served it, else a
//     rendezvous-hash choice that stays stable as the fleet changes),
//     falling back to plain oldest-first work sharing whenever the
//     preferred worker is busy — an idle fleet never starves.
//   - Liveness is heartbeat-based: workers send a heartbeat frame on a
//     coordinator-chosen cadence, and a member silent past the
//     heartbeat timeout is declared dead. Its in-flight chunk requeues
//     (filtered to the cells it has not delivered yet).
//   - Stragglers have one policy on both transports, the per-chunk
//     deadline (BatchTimeout): a member holding one chunk past it is
//     dropped and the chunk requeued. No chunk goes to a second worker
//     while the first one holds it: a cell is a pure function of
//     (scenario, params, scope, shard, rootSeed), so a second copy could
//     only repeat the first one's bytes. The price is that a worker
//     which is slow but alive keeps its chunk until it answers or the
//     deadline drops it.
//
// A chunk is therefore in flight on at most one worker at a time, and
// the determinism contract survives any fleet shape: results merge by
// shard exactly as with every other backend, and the suite document is
// byte-identical to a local run modulo the stats blocks.
// See docs/ARCHITECTURE.md "The worker fleet".

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// protoVersion gates the hello/welcome handshake; binVersion moves
	// with it.
	protoVersion = 2
	// remoteMaxChunkAttempts bounds how often one chunk may be
	// (re)dispatched before the run fails — a chunk that keeps killing
	// workers or erroring is reported, not retried forever.
	remoteMaxChunkAttempts = 10
	// remoteHandshakeTimeout bounds a TCP member's hello/welcome exchange
	// and every individual frame write.
	remoteHandshakeTimeout = 10 * time.Second
	// remoteTick is how often a run checks its chunk deadlines and the
	// empty-fleet join grace.
	remoteTick = 100 * time.Millisecond
)

// remoteHello is the worker's first frame.
type remoteHello struct {
	Proto int `json:"proto"`
	// Name labels the worker in fleet stats (conventionally host/pid).
	Name string `json:"name,omitempty"`
}

// remoteWelcome is the coordinator's handshake reply and the only path
// by which run settings reach a worker: the Settings of the pool the
// fleet is installed in, which the worker builds its session pool from.
type remoteWelcome struct {
	Proto int `json:"proto"`
	// HeartbeatMS is the heartbeat cadence the coordinator expects.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	Settings
}

// RemoteBackend executes cells on an elastic fleet of TCP workers. The
// zero value is usable once installed in a Pool (Pool.SetBackend),
// whose Settings every joining worker is welcomed with: Run listens
// lazily on Addr (default 127.0.0.1:0) and waits up to JoinGrace for the
// first worker. The exported fields must be set before the first Run or
// Start.
type RemoteBackend struct {
	// Addr is the TCP listen address, e.g. ":7701" (empty means
	// 127.0.0.1:0, useful for tests).
	Addr string
	// HeartbeatTimeout declares a worker dead after this much silence
	// (<= 0 means 5s). Workers heartbeat at a quarter of it.
	HeartbeatTimeout time.Duration
	// BatchTimeout bounds how long one chunk may stay on a worker. A
	// worker that exceeds it is dropped, though it still heartbeats, and
	// its chunk requeues onto the rest of the fleet. <= 0 means no
	// deadline: a slow worker keeps its chunk until it answers or dies.
	BatchTimeout time.Duration
	// JoinGrace is how long a Run tolerates an empty fleet — at start or
	// after every worker died — before failing (<= 0 means 60s).
	JoinGrace time.Duration
	// Affinity toggles locality-aware dispatch (nil means on). With it
	// off, dispatch is plain oldest-first work sharing; results are
	// identical either way.
	Affinity *bool

	mu       sync.Mutex
	ln       net.Listener // nil for a spawned fleet, which no one can join
	closed   bool
	nextSeq  uint64
	nextID   int
	fleet    map[*remoteWorker]struct{}
	roster   []*remoteWorker // every worker that ever joined, join order
	inflight map[uint64]*remoteChunk
	runs     map[*remoteRun]struct{}
	// lastServed maps a locality key to the worker that most recently
	// received a chunk carrying it — the warmest home for the next one.
	lastServed map[string]*remoteWorker
	wire       wireStats
	// lastWorkerAt is when the fleet last had a live member; JoinGrace
	// measures from here (or from the run start, whichever is later).
	lastWorkerAt time.Time
	cellsTotal   uint64
	retries      uint64
	joins        uint64
	leaves       uint64

	pool   atomic.Pointer[Pool]
	wallNS atomic.Int64
}

// memberConn is a fleet member's transport: a TCP connection, or a
// spawned worker's stdio pipes. Closing it drops the member: a TCP
// worker sees a clean shutdown, a spawned one is killed.
type memberConn interface {
	io.ReadWriteCloser
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// remoteWorker is one fleet member. Mutable state is guarded by the
// backend mutex except the write path (wmu serializes frame writes).
type remoteWorker struct {
	id   int
	name string
	conn memberConn
	wmu  sync.Mutex

	dead bool
	// cause is why the member was dropped (the first reason wins).
	cause error
	busy  *remoteChunk
	cells uint64
	// served records every locality key this worker has received, so an
	// idle worker can prefer queued chunks whose artifacts it holds.
	served         map[string]struct{}
	affinityHits   uint64
	affinityMisses uint64
}

// remoteChunk is one dispatchable slice of a run's batch. A chunk is
// either pending (queued), or in flight on exactly one worker.
type remoteChunk struct {
	run   *remoteRun
	specs []CellSpec
	// locality is the warm-artifact key shared by every spec in the
	// chunk (chunking never mixes keys; "" when cells carry none).
	locality string
	// seq is the wire id of the current dispatch (0 when pending).
	seq      uint64
	worker   *remoteWorker
	sentAt   time.Time
	attempts int
}

// remoteRun is one Run call's scheduling state, guarded by the backend
// mutex.
type remoteRun struct {
	// backend names the backend the run belongs to (exec or remote), in
	// its cells and errors.
	backend string
	// chunkTimeout, when positive, drops a member whose chunk has been in
	// flight longer and requeues the chunk.
	chunkTimeout time.Duration

	started   time.Time
	specOf    map[int]CellSpec
	got       map[int]CellResult
	remaining int
	pending   []*remoteChunk
	// cellFailed is set once an accepted result carries a cell error: the
	// run then ends with the results it has, and mapCells reports the cell's
	// own error.
	cellFailed bool
	err        error
	done       chan struct{}
}

func (r *remoteRun) finished() bool { return r.err != nil || r.remaining == 0 || r.cellFailed }

// Name implements Backend.
func (b *RemoteBackend) Name() string { return "remote" }

func (b *RemoteBackend) setPool(p *Pool) { b.pool.Store(p) }

// errNoPool refuses a fleet no pool has installed: it would have no
// settings to welcome a worker with.
var errNoPool = errors.New("fleet backend is installed in no pool (see Pool.SetBackend)")

func (b *RemoteBackend) heartbeatTimeout() time.Duration {
	if b.HeartbeatTimeout > 0 {
		return b.HeartbeatTimeout
	}
	return 5 * time.Second
}

func (b *RemoteBackend) joinGrace() time.Duration {
	if b.JoinGrace > 0 {
		return b.JoinGrace
	}
	return 60 * time.Second
}

// initLocked allocates the scheduler's maps. Requires b.mu.
func (b *RemoteBackend) initLocked() {
	if b.fleet == nil {
		b.fleet = map[*remoteWorker]struct{}{}
		b.inflight = map[uint64]*remoteChunk{}
		b.runs = map[*remoteRun]struct{}{}
		b.lastServed = map[string]*remoteWorker{}
	}
}

// Start begins listening and accepting workers, returning the bound
// address (which resolves an ephemeral port). Run calls it lazily; call
// it explicitly to learn the address before launching workers.
func (b *RemoteBackend) Start() (net.Addr, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("remote backend is closed")
	}
	if b.pool.Load() == nil {
		return nil, errNoPool
	}
	if b.ln != nil {
		return b.ln.Addr(), nil
	}
	addr := b.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote backend: listen %s: %w", addr, err)
	}
	b.ln = ln
	go b.acceptLoop(ln)
	return ln.Addr(), nil
}

func (b *RemoteBackend) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetKeepAlive(true)
		}
		go func() {
			if b.admit(conn, remoteHandshakeTimeout) != nil {
				conn.Close()
			}
		}()
	}
}

// admit runs the handshake on conn, bounded by timeout when positive,
// and on success adds the worker to the fleet and starts its read loop.
// A worker on another protocol version still gets a welcome naming the
// coordinator's version before it is refused. On error the caller owns
// conn.
func (b *RemoteBackend) admit(conn memberConn, timeout time.Duration) error {
	if timeout > 0 {
		deadline := time.Now().Add(timeout)
		_ = conn.SetReadDeadline(deadline)
		_ = conn.SetWriteDeadline(deadline)
	}
	var hello remoteHello
	n, err := readJSONFrame(conn, &hello)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	b.wire.jsonBytes.Add(uint64(n))
	welcome := remoteWelcome{Proto: protoVersion}
	if hello.Proto == protoVersion {
		// Start and ExecBackend's spawn both refuse a fleet outside a
		// pool, so no member reaches admit without one.
		welcome = remoteWelcome{Proto: protoVersion,
			HeartbeatMS: heartbeatInterval(b.heartbeatTimeout()).Milliseconds(),
			Settings:    b.pool.Load().Settings()}
	}
	n, err = writeJSONFrame(conn, welcome)
	if err != nil {
		return fmt.Errorf("welcome: %w", err)
	}
	b.wire.jsonBytes.Add(uint64(n))
	if hello.Proto != protoVersion {
		return fmt.Errorf("worker speaks protocol %d, want %d", hello.Proto, protoVersion)
	}
	_ = conn.SetReadDeadline(time.Time{})
	_ = conn.SetWriteDeadline(time.Time{})

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errors.New("fleet is closed")
	}
	b.initLocked()
	name := hello.Name
	if name == "" {
		name = "worker"
	}
	w := &remoteWorker{id: b.nextID, name: fmt.Sprintf("%s#%d", name, b.nextID), conn: conn, served: map[string]struct{}{}}
	b.nextID++
	b.joins++
	b.fleet[w] = struct{}{}
	b.roster = append(b.roster, w)
	b.lastWorkerAt = time.Now()
	b.dispatchLocked()
	go b.serveWorker(w)
	return nil
}

// heartbeatInterval derives the worker heartbeat cadence from the
// coordinator's patience: a quarter of the timeout, clamped to
// [25ms, 1s], so several beats fit into every timeout window.
func heartbeatInterval(timeout time.Duration) time.Duration {
	iv := timeout / 4
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	return iv
}

// serveWorker is the coordinator-side read loop for one member; once
// the member's connection fails, it drops the member (requeueing its
// chunk). A spawned member leaves a post-mortem — exit state and recent
// stderr — and since a spawned fleet cannot gain members mid-run, its
// last member's death fails the active runs with that diagnosis.
func (b *RemoteBackend) serveWorker(w *remoteWorker) {
	err := b.readFrames(w)
	w.conn.Close()
	postmortem := ""
	if pm, ok := w.conn.(interface{ postmortem() string }); ok {
		postmortem = pm.postmortem()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dropLocked(w, err)
	if b.ln == nil && len(b.fleet) == 0 {
		cause := w.cause
		if postmortem != "" {
			cause = fmt.Errorf("%w; %s", cause, postmortem)
		}
		for run := range b.runs {
			b.failRunLocked(run, fmt.Errorf("%s worker %d: %w", run.backend, w.id, cause))
		}
	}
}

// readFrames reads one member's frames until its connection fails.
// Every frame refreshes the read deadline, so heartbeat-based liveness
// needs no extra timer: a member silent past the heartbeat timeout
// fails the read.
func (b *RemoteBackend) readFrames(w *remoteWorker) error {
	for {
		_ = w.conn.SetReadDeadline(time.Now().Add(b.heartbeatTimeout()))
		m, n, err := readWireFrame(w.conn)
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch m.kind {
		case wireKindHeartbeat:
			// The read deadline reset above is the entire point. Heartbeats
			// stay out of the byte count, which would otherwise vary with
			// wall time.
		case wireKindResults:
			b.wire.binaryBytes.Add(uint64(n))
			b.handleResults(w, m)
		default:
			return fmt.Errorf("frame kind %d from worker", m.kind)
		}
	}
}

// dropLocked removes a member from the fleet: it is marked dead, its
// connection closed, and its in-flight chunk requeued. Requires b.mu.
func (b *RemoteBackend) dropLocked(w *remoteWorker, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	w.cause = cause
	w.conn.Close()
	delete(b.fleet, w)
	b.leaves++
	if chunk := w.busy; chunk != nil {
		b.detachLocked(chunk)
		b.queueLocked(chunk, fmt.Errorf("worker %s lost: %w", w.name, cause))
	}
	b.dispatchLocked()
}

// detachLocked takes an in-flight chunk off its worker, which becomes
// idle. Requires b.mu.
func (b *RemoteBackend) detachLocked(chunk *remoteChunk) {
	delete(b.inflight, chunk.seq)
	chunk.worker.busy = nil
	chunk.seq = 0
	chunk.worker = nil
}

// queueLocked puts a detached chunk of an unfinished run back on the
// run's queue, trimmed to the shards it has not delivered; a chunk out
// of dispatch attempts fails the run instead. Requires b.mu.
func (b *RemoteBackend) queueLocked(chunk *remoteChunk, cause error) {
	run := chunk.run
	missing := missingSpecs(run, chunk.specs)
	if run.finished() || len(missing) == 0 {
		return
	}
	if chunk.attempts >= remoteMaxChunkAttempts {
		b.failRunLocked(run, fmt.Errorf("chunk of %d cells failed %d dispatch attempts, last: %w",
			len(missing), chunk.attempts, cause))
		return
	}
	chunk.specs = missing
	b.retries += uint64(len(missing))
	run.pending = append(run.pending, chunk)
}

// missingSpecs filters specs to the shards the run has not accepted yet.
func missingSpecs(run *remoteRun, specs []CellSpec) []CellSpec {
	out := make([]CellSpec, 0, len(specs))
	for _, s := range specs {
		if _, ok := run.got[s.Shard]; !ok {
			out = append(out, s)
		}
	}
	return out
}

// handleResults merges one results frame: the first result per shard
// is kept, and results for shards the chunk does not hold are ignored.
// A failed cell ends the run with the results it has — a worker stops a
// chunk at its first failing cell, and the Backend contract lets Run
// stop there too. Shards a clean reply left out are requeued. A batch
// error either fails the run (permanent) or requeues the chunk
// (transient).
func (b *RemoteBackend) handleResults(w *remoteWorker, m *wireMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	chunk := b.inflight[m.seq]
	if chunk == nil || chunk.worker != w {
		return // stale frame for a chunk already requeued elsewhere
	}
	b.detachLocked(chunk)
	run := chunk.run

	if m.err != "" {
		err := fmt.Errorf("%s worker %s: %s", run.backend, w.name, m.err)
		if m.permanent {
			b.failRunLocked(run, Permanent(err))
		} else {
			// The worker stays in the fleet: a transient batch error
			// (say, a scenario its binary lacks) only requeues the
			// chunk, most likely to land on a different worker.
			b.queueLocked(chunk, err)
		}
		b.dispatchLocked()
		return
	}

	held := make(map[int]bool, len(chunk.specs))
	for _, s := range chunk.specs {
		held[s.Shard] = true
	}
	for _, r := range m.results {
		if !held[r.Shard] {
			continue
		}
		if _, dup := run.got[r.Shard]; dup || run.finished() {
			// A shard repeated in one reply, or a reply landing after the
			// run ended.
			continue
		}
		run.got[r.Shard] = r
		run.remaining--
		w.cells++
		b.cellsTotal++
		if r.Err != "" {
			run.cellFailed = true
		}
	}
	b.queueLocked(chunk, fmt.Errorf("%s worker %s returned %d of %d cells", run.backend, w.name, len(m.results), len(chunk.specs)))
	b.maybeFinishLocked(run)
	b.dispatchLocked()
}

func (b *RemoteBackend) maybeFinishLocked(run *remoteRun) {
	if run.err == nil && run.finished() {
		if _, active := b.runs[run]; active {
			delete(b.runs, run)
			close(run.done)
		}
	}
}

func (b *RemoteBackend) failRunLocked(run *remoteRun, err error) {
	if _, active := b.runs[run]; !active || run.err != nil {
		return
	}
	run.err = err
	delete(b.runs, run)
	close(run.done)
}

// affinityOn resolves the tri-state Affinity flag (nil means on).
func (b *RemoteBackend) affinityOn() bool { return b.Affinity == nil || *b.Affinity }

// preferredWorkerLocked is the worker a locality key should land on:
// the worker that last served it while that worker remains live, else
// the rendezvous-hash champion among the live fleet. Rendezvous keeps
// placement stable as workers join and leave — only keys whose
// champion departed move. Requires b.mu.
func (b *RemoteBackend) preferredWorkerLocked(loc string) *remoteWorker {
	if w, ok := b.lastServed[loc]; ok && !w.dead {
		return w
	}
	var best *remoteWorker
	var bestScore uint64
	for w := range b.fleet {
		score := fnv1a(loc + "\x00" + w.name)
		if best == nil || score > bestScore || (score == bestScore && w.id < best.id) {
			best, bestScore = w, score
		}
	}
	return best
}

// dispatchLocked pairs idle workers with work. With affinity on, a
// first pass sends every pending chunk whose preferred worker is idle
// to that worker — holding a chunk for its warm home while the home is
// idle costs nothing. The second pass is plain work sharing: remaining
// idle workers, oldest member first, drain the queue oldest-first (so
// an idle fleet never starves behind affinity). Requires b.mu; frame
// writes happen on fresh goroutines so the scheduler never blocks on a
// slow connection.
func (b *RemoteBackend) dispatchLocked() {
	if b.affinityOn() {
		for run := range b.runs {
			kept := run.pending[:0]
			for _, c := range run.pending {
				var w *remoteWorker
				if c.locality != "" {
					w = b.preferredWorkerLocked(c.locality)
				}
				if w != nil && w.busy == nil {
					b.assignLocked(w, c)
				} else {
					kept = append(kept, c)
				}
			}
			run.pending = kept
		}
	}
	for {
		w := b.idleWorkerLocked()
		if w == nil {
			return
		}
		chunk := b.nextChunkLocked(w)
		if chunk == nil {
			return
		}
		b.assignLocked(w, chunk)
	}
}

// assignLocked dispatches one chunk on one idle worker: affinity
// accounting, seq/inflight bookkeeping, and the async frame write.
// Requires b.mu.
func (b *RemoteBackend) assignLocked(w *remoteWorker, chunk *remoteChunk) {
	if loc := chunk.locality; loc != "" {
		// Hit/miss is judged against the preference before this very
		// assignment updates it.
		if b.affinityOn() {
			if b.preferredWorkerLocked(loc) == w {
				w.affinityHits++
			} else {
				w.affinityMisses++
			}
		}
		b.lastServed[loc] = w
		w.served[loc] = struct{}{}
	}
	b.nextSeq++
	chunk.seq = b.nextSeq
	chunk.worker = w
	chunk.sentAt = time.Now()
	chunk.attempts++
	w.busy = chunk
	b.inflight[chunk.seq] = chunk
	go b.send(w, &wireMsg{kind: wireKindWork, seq: chunk.seq, cells: chunk.specs})
}

// idleWorkerLocked returns the oldest live idle member, if any; the
// fixed order keeps work sharing reproducible.
func (b *RemoteBackend) idleWorkerLocked() *remoteWorker {
	for _, w := range b.roster {
		if !w.dead && w.busy == nil {
			return w
		}
	}
	return nil
}

// nextChunkLocked picks the next queued chunk for w: one whose key w
// already serves when affinity is on, else the oldest.
func (b *RemoteBackend) nextChunkLocked(w *remoteWorker) *remoteChunk {
	for run := range b.runs {
		if len(run.pending) == 0 {
			continue
		}
		pick := 0
		if b.affinityOn() {
			for i, c := range run.pending {
				if c.locality == "" {
					continue
				}
				if _, ok := w.served[c.locality]; ok {
					pick = i
					break
				}
			}
		}
		chunk := run.pending[pick]
		run.pending = append(run.pending[:pick], run.pending[pick+1:]...)
		return chunk
	}
	return nil
}

// send writes one work frame, dropping the member on error.
func (b *RemoteBackend) send(w *remoteWorker, m *wireMsg) {
	payload := encodeWireMsg(m)
	b.wire.binaryBytes.Add(uint64(len(payload)))
	w.wmu.Lock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(remoteHandshakeTimeout))
	err := writeRawFrame(w.conn, payload)
	w.wmu.Unlock()
	if err != nil {
		b.mu.Lock()
		b.dropLocked(w, fmt.Errorf("send chunk: %w", err))
		b.mu.Unlock()
	}
}

// Run implements Backend: the batch is chunked, scheduled across the
// live fleet, and survives workers joining, leaving, and overrunning
// BatchTimeout; Run returns when every shard has exactly one accepted
// result (or the run fails permanently).
func (b *RemoteBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.wallNS.Add(int64(time.Since(start))) }()
	if len(specs) == 0 {
		return nil, nil
	}
	if _, err := b.Start(); err != nil {
		return nil, err
	}
	return b.run(ctx, specs, b.Name(), b.BatchTimeout)
}

// run schedules one batch on the fleet's current and future members, on
// behalf of the named backend; a positive chunkTimeout bounds how long
// any chunk may stay on one member.
func (b *RemoteBackend) run(ctx context.Context, specs []CellSpec, backend string, chunkTimeout time.Duration) ([]CellResult, error) {
	run := &remoteRun{
		started:   time.Now(),
		specOf:    make(map[int]CellSpec, len(specs)),
		got:       make(map[int]CellResult, len(specs)),
		remaining: len(specs),
		done:      make(chan struct{}),

		backend:      backend,
		chunkTimeout: chunkTimeout,
	}
	for _, s := range specs {
		run.specOf[s.Shard] = s
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, fmt.Errorf("%s backend is closed", backend)
	}
	b.initLocked()
	if b.ln == nil && len(b.fleet) == 0 {
		b.mu.Unlock()
		return nil, fmt.Errorf("%s fleet has no live workers", backend)
	}
	for _, c := range localityChunks(specs, max(1, len(b.fleet))) {
		run.pending = append(run.pending, &remoteChunk{run: run, specs: c, locality: c[0].Locality})
	}
	b.runs[run] = struct{}{}
	b.dispatchLocked()
	b.mu.Unlock()

	tickDone := make(chan struct{})
	defer close(tickDone)
	go b.tickRun(run, tickDone)

	select {
	case <-run.done:
	case <-ctx.Done():
		b.mu.Lock()
		b.failRunLocked(run, ctx.Err())
		b.mu.Unlock()
		<-run.done
	}

	b.mu.Lock()
	err := run.err
	results := make([]CellResult, 0, len(run.got))
	for _, r := range run.got {
		results = append(results, r)
	}
	b.mu.Unlock()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	sortResultsByShard(results)
	// Stream completions only after the whole batch succeeded: a failed
	// batch must stay invisible to the pool's cell accounting.
	pool := b.pool.Load()
	for i := range results {
		r := &results[i]
		s := run.specOf[r.Shard]
		pool.complete(Cell{
			Backend: backend, Scope: s.Scope, Shard: r.Shard, Seed: s.Seed,
			Elapsed: time.Duration(r.ElapsedUS) * time.Microsecond, Err: r.CellErr(),
		}, s, *r)
	}
	return results, nil
}

// tickRun drives the time-based scheduling decisions for one run —
// chunk timeouts and the empty-fleet join grace — until the run
// completes or its Run call returns.
func (b *RemoteBackend) tickRun(run *remoteRun, stop <-chan struct{}) {
	t := time.NewTicker(remoteTick)
	defer t.Stop()
	for {
		select {
		case <-run.done:
			return
		case <-stop:
			return
		case <-t.C:
		}
		b.mu.Lock()
		if run.chunkTimeout > 0 {
			// Every chunk counts, a finished run's included: a wedged
			// member would otherwise stay busy forever.
			var overdue []*remoteChunk
			for _, c := range b.inflight {
				if time.Since(c.sentAt) > run.chunkTimeout {
					overdue = append(overdue, c)
				}
			}
			for _, c := range overdue {
				b.dropLocked(c.worker, fmt.Errorf("batch of %d cells exceeded the %v batch timeout", len(c.specs), run.chunkTimeout))
			}
		}
		if b.ln != nil && len(b.fleet) == 0 {
			ref := run.started
			if b.lastWorkerAt.After(ref) {
				ref = b.lastWorkerAt
			}
			if time.Since(ref) > b.joinGrace() {
				b.failRunLocked(run, fmt.Errorf("no workers connected to %s for %v (fleet empty; %d joined, %d left)",
					b.ln.Addr(), b.joinGrace(), b.joins, b.leaves))
			}
		}
		b.mu.Unlock()
	}
}

// BackendStats implements StatsReporter: one fleet-level entry with a
// per-worker breakdown (every worker that ever joined, in join order).
func (b *RemoteBackend) BackendStats() []BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws := make([]WorkerStats, 0, len(b.roster))
	for _, w := range b.roster {
		ws = append(ws, WorkerStats{
			Worker: w.name, Cells: w.cells,
			AffinityHits: w.affinityHits, AffinityMisses: w.affinityMisses,
		})
	}
	stats := BackendStats{
		Backend: b.Name(),
		Cells:   b.cellsTotal,
		Retries: b.retries,
		WallMS:  time.Duration(b.wallNS.Load()).Milliseconds(),
		Joins:   b.joins,
		Leaves:  b.leaves,
		Workers: ws,
	}
	b.wire.fill(&stats)
	return []BackendStats{stats}
}

// Close shuts the coordinator down: the listener stops accepting,
// active runs fail, and member connections close (which a TCP worker
// treats as a clean shutdown).
func (b *RemoteBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	workers := make([]*remoteWorker, 0, len(b.fleet))
	for w := range b.fleet {
		workers = append(workers, w)
	}
	for run := range b.runs {
		run.err = fmt.Errorf("%s backend closed", run.backend)
		delete(b.runs, run)
		close(run.done)
	}
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, w := range workers {
		w.conn.Close()
	}
	return nil
}

// ServeRemoteWorker dials a RemoteBackend coordinator and serves its
// fleet protocol (see ServeWorker) until the coordinator closes the
// connection (the clean shutdown signal) or ctx is canceled.
func ServeRemoteWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: connect %s: %w", addr, err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	return serveSession(ctx, conn, func() { conn.Close() }, fmt.Sprintf("%s/%d", host, os.Getpid()), opts)
}
