package harness

// Elastic network execution: RemoteBackend is a TCP coordinator for a
// dynamic worker fleet. Workers dial in (`stbpu-suite -worker -connect
// host:port`), speak the same length-prefixed CellSpec/CellResult
// frames as the exec backend (JSON by default, the compact binary
// codec when the hello/welcome handshake negotiates it — see wire.go),
// and may join or leave at any point in a run:
//
//   - Batches split into chunks pulled by whichever workers are live;
//     a worker that joins mid-run starts pulling immediately. Chunks
//     never span locality keys, and dispatch is locality-aware: a
//     chunk prefers the worker whose trace/snapshot caches are already
//     warm for its key (the worker that last served it, else a
//     rendezvous-hash choice that stays stable as the fleet changes),
//     falling back to plain oldest-first work sharing whenever the
//     preferred worker is busy — an idle fleet never starves.
//   - Liveness is heartbeat-based: workers send a heartbeat frame on a
//     coordinator-chosen cadence, and a connection silent past the
//     heartbeat timeout is declared dead. Its in-flight chunk requeues
//     (filtered to the cells no other copy has delivered yet).
//   - Stragglers are handled by speculative re-execution: when the
//     queue is drained and a worker sits idle while another holds a
//     chunk past the straggler threshold, the idle worker re-runs the
//     chunk's missing cells. The first result to arrive for a cell
//     address wins; later duplicates are discarded. Cells are pure
//     functions of (scenario, params, scope, shard, rootSeed), so
//     duplicate execution is bit-identical and dedup by shard is safe.
//
// The determinism contract therefore survives any fleet shape: results
// merge by shard exactly as with every other backend, and the suite
// document is byte-identical to a local run modulo the stats blocks.
// See docs/ARCHITECTURE.md "The worker fleet".

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// remoteProtoVersion gates the hello/welcome handshake.
	remoteProtoVersion = 1
	// remoteMaxChunkAttempts bounds how often one chunk may be
	// (re)dispatched before the run fails — a chunk that keeps killing
	// workers or erroring is reported, not retried forever.
	remoteMaxChunkAttempts = 10
	// remoteHandshakeTimeout bounds the hello/welcome exchange and every
	// individual frame write.
	remoteHandshakeTimeout = 10 * time.Second
)

// remoteHello is the worker's first frame after dialing.
type remoteHello struct {
	Proto int `json:"proto"`
	// Name labels the worker in fleet stats (conventionally host/pid).
	Name string `json:"name,omitempty"`
	// Codecs advertises the frame codecs the worker can speak beyond
	// JSON (see wire.go); old workers omit it and stay on JSON.
	Codecs []string `json:"codecs,omitempty"`
}

// remoteWelcome is the coordinator's handshake reply.
type remoteWelcome struct {
	Proto int `json:"proto"`
	// HeartbeatMS is the heartbeat cadence the coordinator expects.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// TraceDir, when nonempty, is the coordinator's persistent trace
	// tier; a worker without its own -trace-dir adopts it, so trace
	// generation is a one-time cost per machine sharing the directory.
	TraceDir string `json:"trace_dir,omitempty"`
	// TraceMajor and TraceMmap, when present, carry the coordinator's
	// scheduling and mmap-tier settings; a worker that got no explicit
	// local setting adopts them. Absent (nil — older coordinators) the
	// worker keeps its own defaults; either way results are identical,
	// only execution shape differs.
	TraceMajor *bool `json:"trace_major,omitempty"`
	TraceMmap  *bool `json:"trace_mmap,omitempty"`
	// Snapshots and SnapDir carry the coordinator's warm-state snapshot
	// tier settings, adopted the same way: the toggle when the worker
	// got no explicit local setting, the checkpoint directory when the
	// worker has none of its own. Results are bit-identical either way;
	// only the amount of warmup replay differs.
	Snapshots *bool  `json:"snapshots,omitempty"`
	SnapDir   string `json:"snap_dir,omitempty"`
	// WorkloadSpecs carries the coordinator's raw JSON workload-spec
	// documents; a joining worker registers them before serving cells,
	// so a bare `-worker -connect` fleet resolves the same spec
	// workload names the coordinator schedules.
	WorkloadSpecs []string `json:"workload_specs,omitempty"`
	// Codec is the frame codec the coordinator selected from the
	// hello's advertised list; empty means JSON. All frames after the
	// handshake use it, in both directions.
	Codec string `json:"codec,omitempty"`
}

// remoteWork is one coordinator → worker frame after the handshake.
type remoteWork struct {
	Seq   uint64     `json:"seq"`
	Cells []CellSpec `json:"cells"`
	// Prefetch names locality keys the worker is likely to serve next,
	// so it can warm trace/snapshot tiers while computing this chunk.
	// Advisory: results never depend on it.
	Prefetch []string `json:"prefetch,omitempty"`
}

// remoteReply is one worker → coordinator frame after the handshake:
// either a heartbeat or the results of the chunk identified by Seq.
type remoteReply struct {
	Type      string       `json:"type"` // "heartbeat" or "results"
	Seq       uint64       `json:"seq,omitempty"`
	Results   []CellResult `json:"results,omitempty"`
	Err       string       `json:"err,omitempty"`
	Permanent bool         `json:"permanent,omitempty"`
}

// RemoteBackend executes cells on an elastic fleet of TCP workers. The
// zero value is usable: Run listens lazily on Addr (default
// 127.0.0.1:0) and waits up to JoinGrace for the first worker. The
// exported fields must be set before the first Run or Start.
type RemoteBackend struct {
	// Addr is the TCP listen address, e.g. ":7701" (empty means
	// 127.0.0.1:0, useful for tests).
	Addr string
	// TraceDir is forwarded to joining workers that have no trace tier
	// of their own (see remoteWelcome.TraceDir).
	TraceDir string
	// TraceMajor and TraceMmap are forwarded to joining workers (see
	// remoteWelcome); nil leaves each worker's local setting in place.
	TraceMajor *bool
	TraceMmap  *bool
	// Snapshots and SnapDir are forwarded to joining workers (see
	// remoteWelcome.Snapshots); nil/empty leave worker settings alone.
	Snapshots *bool
	SnapDir   string
	// WorkloadSpecs holds raw JSON workload-spec documents forwarded to
	// every joining worker via the welcome frame (see
	// remoteWelcome.WorkloadSpecs).
	WorkloadSpecs []string
	// HeartbeatTimeout declares a worker dead after this much silence
	// (<= 0 means 5s). Workers heartbeat at a quarter of it.
	HeartbeatTimeout time.Duration
	// MinStragglerAge is the floor below which an in-flight chunk is
	// never considered a straggler (<= 0 means 500ms).
	MinStragglerAge time.Duration
	// StragglerFactor scales the median completed-chunk duration into
	// the straggler threshold: a chunk in flight longer than
	// max(MinStragglerAge, StragglerFactor × median) may be
	// speculatively re-executed by an idle worker (<= 0 means 3).
	StragglerFactor float64
	// JoinGrace is how long a Run tolerates an empty fleet — at start or
	// after every worker died — before failing (<= 0 means 60s).
	JoinGrace time.Duration
	// Affinity toggles locality-aware dispatch (nil means on). With it
	// off, dispatch is plain oldest-first work sharing and no prefetch
	// hints are sent; results are identical either way.
	Affinity *bool
	// Wire selects the frame codec policy: empty negotiates the binary
	// codec with workers that advertise it, "json" pins every worker to
	// JSON frames.
	Wire string

	mu       sync.Mutex
	ln       net.Listener
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

	sink   atomic.Pointer[cellNotify]
	wallNS atomic.Int64
}

// remoteWorker is one connected fleet member. Mutable state is guarded
// by the backend mutex except the write path (wmu serializes frame
// writes to the connection).
type remoteWorker struct {
	id    int
	name  string
	conn  net.Conn
	codec string // negotiated frame codec ("" = JSON)
	wmu   sync.Mutex

	dead        bool
	busy        *remoteChunk
	cells       uint64
	steals      uint64
	speculative uint64
	// served records every locality key this worker has received, so
	// steals can prefer stragglers whose artifacts it already holds.
	served         map[string]struct{}
	affinityHits   uint64
	affinityMisses uint64
}

// remoteChunk is one dispatchable slice of a run's batch. A chunk is
// either pending (queued), or in flight on exactly one worker; a
// speculative clone is a separate chunk covering the original's
// not-yet-accepted shards.
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
	// speculative marks a straggler re-execution clone.
	speculative bool
	// clones counts this chunk's in-flight speculative copies, so a
	// straggler is not duplicated more than once at a time.
	clones int
	// source is the chunk a speculative clone duplicates.
	source *remoteChunk
}

// remoteRun is one Run call's scheduling state, guarded by the backend
// mutex.
type remoteRun struct {
	started   time.Time
	specOf    map[int]CellSpec
	got       map[int]CellResult
	remaining int
	pending   []*remoteChunk
	inflight  map[*remoteChunk]struct{}
	// durations collects completed-chunk wall times for the straggler
	// median.
	durations []time.Duration
	err       error
	done      chan struct{}
}

func (r *remoteRun) finished() bool { return r.err != nil || r.remaining == 0 }

// Name implements Backend.
func (b *RemoteBackend) Name() string { return "remote" }

func (b *RemoteBackend) setSink(fn cellNotify) { b.sink.Store(&fn) }

func (b *RemoteBackend) notify(c Cell, spec CellSpec, res CellResult) {
	if fn := b.sink.Load(); fn != nil && *fn != nil {
		(*fn)(c, spec, res)
	}
}

func (b *RemoteBackend) heartbeatTimeout() time.Duration {
	if b.HeartbeatTimeout > 0 {
		return b.HeartbeatTimeout
	}
	return 5 * time.Second
}

func (b *RemoteBackend) minStragglerAge() time.Duration {
	if b.MinStragglerAge > 0 {
		return b.MinStragglerAge
	}
	return 500 * time.Millisecond
}

func (b *RemoteBackend) stragglerFactor() float64 {
	if b.StragglerFactor > 0 {
		return b.StragglerFactor
	}
	return 3
}

func (b *RemoteBackend) joinGrace() time.Duration {
	if b.JoinGrace > 0 {
		return b.JoinGrace
	}
	return 60 * time.Second
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
	if b.fleet == nil {
		b.fleet = map[*remoteWorker]struct{}{}
		b.inflight = map[uint64]*remoteChunk{}
		b.runs = map[*remoteRun]struct{}{}
		b.lastServed = map[string]*remoteWorker{}
	}
	go b.acceptLoop(ln)
	return ln.Addr(), nil
}

func (b *RemoteBackend) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go b.admit(conn)
	}
}

// admit runs the handshake (always JSON-framed) and, on success, adds
// the worker to the fleet and starts its read loop.
func (b *RemoteBackend) admit(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(remoteHandshakeTimeout))
	var hello remoteHello
	n, err := readJSONFrame(conn, &hello)
	if err != nil || hello.Proto != remoteProtoVersion {
		conn.Close()
		return
	}
	b.wire.count("", n)
	codec := negotiateCodec(hello.Codecs, b.Wire)
	welcome := remoteWelcome{
		Proto:         remoteProtoVersion,
		HeartbeatMS:   heartbeatInterval(b.heartbeatTimeout()).Milliseconds(),
		TraceDir:      b.TraceDir,
		TraceMajor:    b.TraceMajor,
		TraceMmap:     b.TraceMmap,
		Snapshots:     b.Snapshots,
		SnapDir:       b.SnapDir,
		WorkloadSpecs: b.WorkloadSpecs,
		Codec:         codec,
	}
	n, err = writeJSONFrame(conn, welcome)
	if err != nil {
		conn.Close()
		return
	}
	b.wire.count("", n)
	_ = conn.SetDeadline(time.Time{})
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	name := hello.Name
	if name == "" {
		name = "worker"
	}
	w := &remoteWorker{id: b.nextID, name: fmt.Sprintf("%s#%d", name, b.nextID), conn: conn, codec: codec, served: map[string]struct{}{}}
	b.nextID++
	b.joins++
	b.fleet[w] = struct{}{}
	b.roster = append(b.roster, w)
	b.lastWorkerAt = time.Now()
	b.dispatchLocked()
	b.mu.Unlock()

	go b.serveWorker(w)
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

// serveWorker is the coordinator-side read loop for one worker. Every
// frame refreshes the read deadline, so heartbeat-based liveness needs
// no extra timer: a connection silent past the heartbeat timeout fails
// the read, which fails the worker, which requeues its chunk.
func (b *RemoteBackend) serveWorker(w *remoteWorker) {
	for {
		_ = w.conn.SetReadDeadline(time.Now().Add(b.heartbeatTimeout()))
		payload, err := readRawFrame(w.conn)
		if err != nil {
			b.failWorker(w, err)
			return
		}
		b.wire.count(w.codec, len(payload))
		var reply remoteReply
		if len(payload) > 0 && payload[0] == binMagic {
			m, err := decodeWireMsg(payload)
			if err != nil {
				b.failWorker(w, err)
				return
			}
			switch m.kind {
			case wireKindHeartbeat:
				reply.Type = "heartbeat"
			case wireKindResults:
				reply = remoteReply{Type: "results", Seq: m.seq, Results: m.results, Err: m.err, Permanent: m.permanent}
			default:
				b.failWorker(w, fmt.Errorf("frame kind %d from worker", m.kind))
				return
			}
		} else if err := json.Unmarshal(payload, &reply); err != nil {
			b.failWorker(w, err)
			return
		}
		switch reply.Type {
		case "heartbeat":
			// The read deadline reset above is the entire point.
		case "results":
			b.handleResults(w, &reply)
		}
	}
}

// failWorker removes a worker from the fleet and requeues its in-flight
// chunk.
func (b *RemoteBackend) failWorker(w *remoteWorker, cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if w.dead {
		return
	}
	w.dead = true
	w.conn.Close()
	delete(b.fleet, w)
	b.leaves++
	if chunk := w.busy; chunk != nil {
		w.busy = nil
		b.requeueLocked(chunk, fmt.Errorf("worker %s lost: %w", w.name, cause))
	}
	b.dispatchLocked()
}

// requeueLocked returns an in-flight chunk to its run's queue, trimmed
// to the shards no other copy has delivered. Requires b.mu.
func (b *RemoteBackend) requeueLocked(chunk *remoteChunk, cause error) {
	delete(b.inflight, chunk.seq)
	chunk.seq = 0
	chunk.worker = nil
	run := chunk.run
	delete(run.inflight, chunk)
	if chunk.source != nil {
		chunk.source.clones--
	}
	if run.finished() {
		return
	}
	b.queueLocked(chunk, cause)
}

// queueLocked puts a detached chunk back on its run's queue, trimmed to
// the shards no other copy has delivered; a chunk out of dispatch
// attempts fails the run instead. Requires b.mu.
func (b *RemoteBackend) queueLocked(chunk *remoteChunk, cause error) {
	run := chunk.run
	missing := missingSpecs(run, chunk.specs)
	if len(missing) == 0 {
		// Another copy delivered everything; nothing left to redo. The
		// run may have been waiting on exactly this bookkeeping.
		b.maybeFinishLocked(run)
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

// handleResults merges one results frame: first result per shard wins,
// duplicates count as speculative waste, batch errors either fail the
// run (permanent) or requeue the chunk (transient).
func (b *RemoteBackend) handleResults(w *remoteWorker, reply *remoteReply) {
	b.mu.Lock()
	defer b.mu.Unlock()
	chunk := b.inflight[reply.Seq]
	if chunk == nil || chunk.worker != w {
		return // stale frame for a chunk already requeued elsewhere
	}
	delete(b.inflight, reply.Seq)
	chunk.seq = 0
	chunk.worker = nil
	w.busy = nil
	run := chunk.run
	delete(run.inflight, chunk)
	if chunk.source != nil {
		chunk.source.clones--
	}

	if reply.Err != "" {
		err := fmt.Errorf("remote worker %s: %s", w.name, reply.Err)
		if !run.finished() {
			if reply.Permanent {
				b.failRunLocked(run, Permanent(err))
			} else {
				// The worker stays in the fleet: a transient batch error
				// (say, a scenario its binary lacks) only requeues the
				// chunk, most likely to land on a different worker.
				b.queueLocked(chunk, err)
			}
		}
		b.dispatchLocked()
		return
	}

	accepted := 0
	for _, r := range reply.Results {
		if _, dup := run.got[r.Shard]; dup || run.finished() {
			// A speculative copy (or a copy landing after the run ended)
			// lost the race; bit-identity makes the discard safe.
			w.speculative++
			continue
		}
		run.got[r.Shard] = r
		run.remaining--
		w.cells++
		b.cellsTotal++
		accepted++
	}
	if accepted > 0 {
		run.durations = append(run.durations, time.Since(chunk.sentAt))
		if chunk.speculative {
			w.steals++
		}
	}
	b.maybeFinishLocked(run)
	b.dispatchLocked()
}

func (b *RemoteBackend) maybeFinishLocked(run *remoteRun) {
	if run.err == nil && run.remaining == 0 {
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
		if _, live := b.fleet[w]; live {
			return w
		}
	}
	var best *remoteWorker
	var bestScore uint64
	for w := range b.fleet {
		if w.dead {
			continue
		}
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
// idle workers drain the queue oldest-first (so an idle fleet never
// starves behind affinity), then speculate on stragglers. Requires
// b.mu; frame writes happen on fresh goroutines so the scheduler never
// blocks on a slow connection.
func (b *RemoteBackend) dispatchLocked() {
	if b.affinityOn() {
		for run := range b.runs {
			kept := run.pending[:0]
			for _, c := range run.pending {
				var w *remoteWorker
				if c.locality != "" {
					w = b.preferredWorkerLocked(c.locality)
				}
				if w != nil && !w.dead && w.busy == nil {
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
		// assignment updates it; speculative clones are deliberate
		// cross-worker duplicates and stay out of the counters.
		if !chunk.speculative && b.affinityOn() {
			if b.preferredWorkerLocked(loc) == w {
				w.affinityHits++
			} else {
				w.affinityMisses++
			}
		}
		b.lastServed[loc] = w
		if w.served == nil {
			w.served = map[string]struct{}{}
		}
		w.served[loc] = struct{}{}
	}
	b.nextSeq++
	chunk.seq = b.nextSeq
	chunk.worker = w
	chunk.sentAt = time.Now()
	chunk.attempts++
	w.busy = chunk
	b.inflight[chunk.seq] = chunk
	chunk.run.inflight[chunk] = struct{}{}
	work := remoteWork{Seq: chunk.seq, Cells: chunk.specs}
	if b.affinityOn() {
		work.Prefetch = b.prefetchHintLocked(w, chunk)
	}
	go b.send(w, work)
}

// prefetchHintLocked names up to two locality keys w is likely to
// serve after chunk — pending chunks preferring w whose key differs
// from the one just dispatched — so the worker overlaps artifact loads
// with compute. Requires b.mu.
func (b *RemoteBackend) prefetchHintLocked(w *remoteWorker, chunk *remoteChunk) []string {
	var hints []string
	seen := map[string]bool{chunk.locality: true, "": true}
	for run := range b.runs {
		for _, c := range run.pending {
			if seen[c.locality] {
				continue
			}
			if b.preferredWorkerLocked(c.locality) != w {
				continue
			}
			seen[c.locality] = true
			hints = append(hints, c.locality)
			if len(hints) == 2 {
				return hints
			}
		}
	}
	return hints
}

// idleWorkerLocked returns a live idle worker, if any.
func (b *RemoteBackend) idleWorkerLocked() *remoteWorker {
	for w := range b.fleet {
		if !w.dead && w.busy == nil {
			return w
		}
	}
	return nil
}

// nextChunkLocked picks the next chunk for w: a queued chunk — one
// whose key w already serves when affinity is on, else the oldest —
// else a speculative clone of a straggler.
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
	return b.speculateLocked(w)
}

// speculateLocked clones a straggling in-flight chunk for w to
// re-execute — preferring, with affinity on, the oldest straggler
// whose key w has served (its artifacts are already warm), else the
// oldest overall — or returns nil if nothing qualifies.
func (b *RemoteBackend) speculateLocked(w *remoteWorker) *remoteChunk {
	now := time.Now()
	var oldest, oldestServed *remoteChunk
	for run := range b.runs {
		threshold := b.stragglerThreshold(run)
		for c := range run.inflight {
			if c.speculative || c.clones > 0 {
				continue
			}
			if now.Sub(c.sentAt) < threshold {
				continue
			}
			if len(missingSpecs(run, c.specs)) == 0 {
				continue
			}
			if oldest == nil || c.sentAt.Before(oldest.sentAt) {
				oldest = c
			}
			if c.locality != "" {
				if _, ok := w.served[c.locality]; ok {
					if oldestServed == nil || c.sentAt.Before(oldestServed.sentAt) {
						oldestServed = c
					}
				}
			}
		}
	}
	pick := oldest
	if b.affinityOn() && oldestServed != nil {
		pick = oldestServed
	}
	if pick == nil {
		return nil
	}
	pick.clones++
	return &remoteChunk{
		run:         pick.run,
		specs:       missingSpecs(pick.run, pick.specs),
		locality:    pick.locality,
		speculative: true,
		source:      pick,
	}
}

// stragglerThreshold is how long a chunk may be in flight before an
// idle worker re-executes it: the configured floor, stretched by the
// run's median chunk duration once one exists.
func (b *RemoteBackend) stragglerThreshold(run *remoteRun) time.Duration {
	th := b.minStragglerAge()
	if n := len(run.durations); n > 0 {
		ds := append([]time.Duration(nil), run.durations...)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		if scaled := time.Duration(b.stragglerFactor() * float64(ds[n/2])); scaled > th {
			th = scaled
		}
	}
	return th
}

// send writes one work frame in the worker's codec, failing the worker
// on error.
func (b *RemoteBackend) send(w *remoteWorker, work remoteWork) {
	var payload []byte
	var err error
	if w.codec == wireCodecBinary {
		payload = encodeWireMsg(&wireMsg{kind: wireKindWork, seq: work.Seq, cells: work.Cells, prefetch: work.Prefetch})
	} else {
		payload, err = json.Marshal(work)
	}
	if err == nil {
		b.wire.count(w.codec, len(payload))
		w.wmu.Lock()
		_ = w.conn.SetWriteDeadline(time.Now().Add(remoteHandshakeTimeout))
		err = writeRawFrame(w.conn, payload)
		w.wmu.Unlock()
	}
	if err != nil {
		b.failWorker(w, fmt.Errorf("send chunk: %w", err))
	}
}

// Run implements Backend: the batch is chunked, scheduled across the
// live fleet, and survives workers joining, leaving, and straggling;
// Run returns when every shard has exactly one accepted result (or the
// run fails permanently).
func (b *RemoteBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.wallNS.Add(int64(time.Since(start))) }()
	if len(specs) == 0 {
		return nil, nil
	}
	if _, err := b.Start(); err != nil {
		return nil, err
	}

	run := &remoteRun{
		started:   time.Now(),
		specOf:    make(map[int]CellSpec, len(specs)),
		got:       make(map[int]CellResult, len(specs)),
		remaining: len(specs),
		inflight:  map[*remoteChunk]struct{}{},
		done:      make(chan struct{}),
	}
	for _, s := range specs {
		run.specOf[s.Shard] = s
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errors.New("remote backend is closed")
	}
	// Chunks never span two locality keys, so affinity routing has clean
	// units to place and a chunk's cells always share their warm
	// artifacts; groups are still cut by size to keep steals and late
	// joiners effective.
	for _, c := range localityChunks(specs, max(1, len(b.fleet)), true) {
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
	// Stream completions only after the whole batch succeeded, mirroring
	// ExecBackend: a failed batch must stay invisible to the pool's cell
	// accounting.
	for i := range results {
		r := &results[i]
		s := run.specOf[r.Shard]
		b.notify(Cell{
			Backend: b.Name(), Scope: s.Scope, Shard: r.Shard, Seed: s.Seed,
			Elapsed: time.Duration(r.ElapsedUS) * time.Microsecond, Err: r.CellErr(),
		}, s, *r)
	}
	return results, nil
}

// tickRun drives the time-based scheduling decisions for one run —
// straggler speculation and the empty-fleet join grace — until the run
// completes or its Run call returns.
func (b *RemoteBackend) tickRun(run *remoteRun, stop <-chan struct{}) {
	tick := b.minStragglerAge() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
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
		if len(b.fleet) == 0 {
			ref := run.started
			if b.lastWorkerAt.After(ref) {
				ref = b.lastWorkerAt
			}
			if time.Since(ref) > b.joinGrace() {
				b.failRunLocked(run, fmt.Errorf("no workers connected to %s for %v (fleet empty; %d joined, %d left)",
					b.listenAddrLocked(), b.joinGrace(), b.joins, b.leaves))
			}
		}
		b.dispatchLocked()
		b.mu.Unlock()
	}
}

func (b *RemoteBackend) listenAddrLocked() string {
	if b.ln == nil {
		return b.Addr
	}
	return b.ln.Addr().String()
}

// BackendStats implements StatsReporter: one fleet-level entry with a
// per-worker breakdown (every worker that ever joined, in join order).
func (b *RemoteBackend) BackendStats() []BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws := make([]WorkerStats, 0, len(b.roster))
	for _, w := range b.roster {
		ws = append(ws, WorkerStats{
			Worker: w.name, Cells: w.cells, Steals: w.steals, Speculative: w.speculative,
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
// active runs fail, and worker connections close (which each worker
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
		run.err = errors.New("remote backend closed")
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

// ---------------------------------------------------------------------------
// Worker side.

// ServeRemoteWorker dials a RemoteBackend coordinator and serves cell
// chunks until the coordinator closes the connection (the clean
// shutdown signal) or ctx is canceled. Heartbeats flow on a separate
// goroutine at the cadence the coordinator requested, so a worker deep
// in a long batch still proves liveness. If opts.TraceDir is empty and
// the coordinator advertises one, the worker adopts it, so every
// worker process on a machine shares one persistent trace tier.
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
	_ = conn.SetDeadline(time.Now().Add(remoteHandshakeTimeout))
	hello := remoteHello{
		Proto:  remoteProtoVersion,
		Name:   fmt.Sprintf("%s/%d", host, os.Getpid()),
		Codecs: wireOffer(opts.Wire),
	}
	if err := writeFrame(conn, hello); err != nil {
		return fmt.Errorf("worker: hello: %w", err)
	}
	var welcome remoteWelcome
	if err := readFrame(conn, &welcome); err != nil {
		return fmt.Errorf("worker: welcome: %w", err)
	}
	if welcome.Proto != remoteProtoVersion {
		return fmt.Errorf("worker: coordinator speaks protocol %d, want %d", welcome.Proto, remoteProtoVersion)
	}
	switch welcome.Codec {
	case "", wireCodecBinary:
	default:
		return fmt.Errorf("worker: coordinator selected unknown codec %q", welcome.Codec)
	}
	codec := welcome.Codec
	_ = conn.SetDeadline(time.Time{})
	if opts.TraceDir == "" {
		opts.TraceDir = welcome.TraceDir
	}
	if opts.TraceMajor == nil {
		opts.TraceMajor = welcome.TraceMajor
	}
	if !opts.TraceMmap && welcome.TraceMmap != nil {
		opts.TraceMmap = *welcome.TraceMmap
	}
	if opts.Snapshots == nil {
		opts.Snapshots = welcome.Snapshots
	}
	if opts.SnapDir == "" {
		opts.SnapDir = welcome.SnapDir
	}
	// Coordinator-forwarded specs compose with any the worker loaded
	// locally; content-hashed names make double registration harmless.
	opts.WorkloadSpecs = append(opts.WorkloadSpecs, welcome.WorkloadSpecs...)
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

	var wmu sync.Mutex
	send := func(reply remoteReply) error {
		var payload []byte
		var err error
		if codec == wireCodecBinary {
			m := wireMsg{seq: reply.Seq, results: reply.Results, err: reply.Err, permanent: reply.Permanent}
			if reply.Type == "heartbeat" {
				m.kind = wireKindHeartbeat
			} else {
				m.kind = wireKindResults
			}
			payload = encodeWireMsg(&m)
		} else if payload, err = json.Marshal(reply); err != nil {
			return err
		}
		wmu.Lock()
		defer wmu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(remoteHandshakeTimeout))
		return writeRawFrame(conn, payload)
	}

	// The connection doubles as the cancellation signal: closing it
	// unblocks the read loop below and stops the heartbeats.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()
	heartbeat := welcome.HeartbeatMS
	if heartbeat <= 0 {
		heartbeat = 1000
	}
	go func() {
		t := time.NewTicker(time.Duration(heartbeat) * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(remoteReply{Type: "heartbeat"}) != nil {
					return
				}
			}
		}
	}()

	for {
		payload, err := readRawFrame(conn)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // coordinator closed the connection: clean shutdown
			}
			return fmt.Errorf("worker: read chunk: %w", err)
		}
		var work remoteWork
		if len(payload) > 0 && payload[0] == binMagic {
			m, err := decodeWireMsg(payload)
			if err != nil {
				return fmt.Errorf("worker: read chunk: %w", err)
			}
			work = remoteWork{Seq: m.seq, Cells: m.cells, Prefetch: m.prefetch}
		} else if err := json.Unmarshal(payload, &work); err != nil {
			return fmt.Errorf("worker: read chunk: %w", err)
		}
		if len(work.Prefetch) > 0 {
			env.prefetch(work.Prefetch)
		}
		reply := remoteReply{Type: "results", Seq: work.Seq}
		results, err := executeCells(ctx, work.Cells, env)
		if err != nil {
			reply.Err = err.Error()
			reply.Permanent = errors.Is(err, ErrPermanent)
		} else {
			reply.Results = results
		}
		if err := send(reply); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("worker: send results: %w", err)
		}
	}
}
