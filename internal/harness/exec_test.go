package harness

// Subprocess-backend tests re-exec this test binary as the worker: when
// the worker-mode env var is set, TestMain serves the fleet protocol on
// stdio — for real, or scripted to misbehave — instead of running tests.
// Coordinator and worker therefore share one binary and one scenario
// registry, exactly like stbpu-suite and `stbpu-suite -worker`.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const (
	workerEnvVar    = "STBPU_HARNESS_TEST_WORKER"
	workerLogEnvVar = "STBPU_HARNESS_TEST_REQUEST_LOG"
	// workerOnceEnvVar names a file that only one worker of a fleet can
	// create; that worker plays the scripted mode, the others serve.
	workerOnceEnvVar = "STBPU_HARNESS_TEST_ONCE"
)

// wireCell is a cell payload exercising float/uint64 wire fidelity.
type wireCell struct {
	Shard int
	Seed  uint64
	Val   float64
}

// registerSpace registers a test scenario, built by Define, whose
// result is its cells.
func registerSpace[S, T any](name, description string, defaults Params, space func(Params, *Pool) (Space[S, T], error)) {
	Register(Define(name, description, defaults, func(p Params, pool *Pool) (Space[S, T], func([]T) ([]T, error), error) {
		sp, err := space(p, pool)
		return sp, func(cells []T) ([]T, error) { return cells, nil }, err
	}))
}

// traceDigest folds every 97th record of a workload's trace into seed.
func traceDigest(pool *Pool, workload string, records int, seed uint64) (uint64, error) {
	cols, _, err := pool.Traces().GetColumns(workload, records)
	if err != nil {
		return 0, err
	}
	digest := seed
	for i := 0; i < cols.Len(); i += 97 {
		digest = digest*1099511628211 ^ cols.PCs[i] ^ cols.Targets[i]
	}
	return digest, nil
}

// registerExecScenarios installs the deterministic scenarios both the
// coordinator tests and the re-exec'd worker need in their registries.
func registerExecScenarios() {
	registerSpace("_exec-wire", "exec-backend test scenario", Params{Trials: 16},
		func(p Params, _ *Pool) (Space[struct{}, wireCell], error) {
			return Cells("_exec-wire", p.Trials, func(ctx context.Context, shard int, seed uint64) (wireCell, error) {
				return wireCell{
					Shard: shard,
					Seed:  seed,
					Val:   math.Sqrt(float64(seed%1e6)) / 3,
				}, nil
			}), nil
		})
	registerSpace("_exec-trace", "exec-backend trace-store scenario", Params{Trials: 4, Records: 2_000},
		func(p Params, pool *Pool) (Space[struct{}, uint64], error) {
			return Cells("_exec-trace", p.Trials, func(ctx context.Context, shard int, seed uint64) (uint64, error) {
				return traceDigest(pool, "505.mcf", p.Records, seed)
			}), nil
		})
	registerSpace("_exec-group", "exec-backend locality-grouped trace scenario", Params{Trials: 8, Records: 2_000},
		func(p Params, pool *Pool) (Space[map[int]uint64, uint64], error) {
			workloads := []string{"505.mcf", "541.leela"}
			wl := func(shard int) string { return workloads[shard%len(workloads)] }
			return Joint("_exec-group", p.Trials,
				func(shard int) string { return Locality(wl(shard), p.Records) },
				func(ctx context.Context, shards []int, seeds []uint64) ([]uint64, error) {
					out := make([]uint64, len(shards))
					for i, shard := range shards {
						digest, err := traceDigest(pool, wl(shard), p.Records, seeds[i])
						if err != nil {
							return nil, err
						}
						out[i] = digest
					}
					return out, nil
				}), nil
		})
	registerSpace("_exec-failing", "exec-backend failing-cell scenario", Params{Trials: 8},
		func(p Params, _ *Pool) (Space[struct{}, int], error) {
			return Cells("_exec-failing", p.Trials, func(ctx context.Context, shard int, seed uint64) (int, error) {
				if shard == 5 {
					return 0, fmt.Errorf("shard %d detonated", shard)
				}
				return shard, nil
			}), nil
		})
	registerSpace("_exec-failing-tail", "exec-backend scenario whose every cell from shard 2 on fails", Params{Trials: 48},
		func(p Params, _ *Pool) (Space[struct{}, int], error) {
			return Cells("_exec-failing-tail", p.Trials, func(ctx context.Context, shard int, seed uint64) (int, error) {
				if shard >= 2 {
					return 0, fmt.Errorf("shard %d detonated", shard)
				}
				return shard, nil
			}), nil
		})
	registerWorkerScenarios()
}

// scriptedHello performs a hand-rolled worker's side of the handshake
// on rw and returns the coordinator's welcome.
func scriptedHello(rw io.ReadWriter, name string) (remoteWelcome, error) {
	var welcome remoteWelcome
	if _, err := writeJSONFrame(rw, remoteHello{Proto: protoVersion, Name: name}); err != nil {
		return welcome, err
	}
	_, err := readJSONFrame(rw, &welcome)
	return welcome, err
}

// readWork reads a hand-rolled worker's next work frame.
func readWork(r io.Reader) (*wireMsg, error) {
	m, _, err := readWireFrame(r)
	if err == nil && m.kind != wireKindWork {
		err = fmt.Errorf("frame kind %d, want work", m.kind)
	}
	return m, err
}

// writeMsg frames m as bin1.
func writeMsg(w io.Writer, m wireMsg) error { return writeRawFrame(w, encodeWireMsg(&m)) }

// answer executes a work frame's cells in this process and returns the
// results frame a healthy worker would send.
func answer(work *wireMsg) wireMsg {
	reply := wireMsg{kind: wireKindResults, seq: work.seq}
	results, err := executeCells(context.Background(), work.cells, NewPool(1, 0))
	if err != nil {
		reply.err = err.Error()
	} else {
		reply.results = results
	}
	return reply
}

// logKeys appends one JSON line to path: the locality key of each cell
// in work, so tests can see how the coordinator cut its batch.
func logKeys(path string, work *wireMsg) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	keys := make([]string, len(work.cells))
	for i, c := range work.cells {
		keys[i] = c.Locality
	}
	line, _ := json.Marshal(keys)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func TestMain(m *testing.M) {
	mode := os.Getenv(workerEnvVar)
	if path := os.Getenv(workerOnceEnvVar); path != "" && mode != "" {
		// Only the first worker to claim the file plays the scripted
		// part; the rest of the fleet is healthy — slow beside a flaky
		// peer, so the flaky one surely gets the chunk it dies holding.
		if f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644); err == nil {
			f.Close()
		} else if mode == "flaky" {
			mode = "slow"
		} else {
			mode = "serve"
		}
	}
	stdio := struct {
		io.Reader
		io.Writer
	}{os.Stdin, os.Stdout}
	switch mode {
	case "":
		registerExecScenarios()
		os.Exit(m.Run())
	case "serve":
		registerExecScenarios()
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, WorkerOptions{Workers: 1}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "remote-wedge":
		// A network worker for the kill -9 chaos test: join the fleet,
		// accept one chunk, announce it on stdout, then hang (still
		// heartbeating) until the test delivers SIGKILL.
		remoteWedgeWorkerMain()
	case "mute":
		// A worker whose host is slow to start it: no hello, ever.
		time.Sleep(time.Hour)
		os.Exit(1)
	case "old-proto":
		// A worker from the previous protocol version: it reads the
		// refusal's welcome and reports both versions, as its own
		// version check would.
		if _, err := writeJSONFrame(stdio, remoteHello{Proto: protoVersion - 1, Name: "old"}); err != nil {
			os.Exit(1)
		}
		var welcome remoteWelcome
		if _, err := readJSONFrame(stdio, &welcome); err != nil {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "coordinator speaks protocol %d, want %d\n", welcome.Proto, protoVersion-1)
		os.Exit(1)
	}

	registerExecScenarios()
	if _, err := scriptedHello(stdio, mode); err != nil {
		os.Exit(1)
	}
	for served := 0; ; served++ {
		work, err := readWork(os.Stdin)
		if err != nil {
			os.Exit(0)
		}
		switch {
		case mode == "die":
			// A worker killed mid-chunk: swallow it, leave a trace on
			// stderr, and vanish without answering.
			fmt.Fprintln(os.Stderr, "worker going down for the kill test")
			os.Exit(3)
		case mode == "wedge":
			// A hung (not dead) worker: the shape only a batch timeout
			// can unstick.
			fmt.Fprintln(os.Stderr, "worker wedged and will never answer")
			select {}
		case mode == "flaky" && served == 2:
			// Two chunks answered, then death holding the third.
			os.Exit(3)
		case mode == "slow":
			time.Sleep(20 * time.Millisecond)
		case mode == "sluggish":
			// Every chunk takes a second.
			if err := logKeys(os.Getenv(workerLogEnvVar), work); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
			time.Sleep(time.Second)
		case mode == "log":
			if err := logKeys(os.Getenv(workerLogEnvVar), work); err != nil {
				fmt.Fprintln(os.Stderr, "worker:", err)
				os.Exit(1)
			}
		}
		if err := writeMsg(os.Stdout, answer(work)); err != nil {
			os.Exit(1)
		}
	}
}

// newTestExecBackend spawns workers by re-exec'ing this test binary.
func newTestExecBackend(t *testing.T, workers int, mode string) *ExecBackend {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b := &ExecBackend{
		Command: []string{exe},
		Env:     []string{workerEnvVar + "=" + mode},
		Workers: workers,
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func runWire(t *testing.T, pool *Pool) []Report {
	t.Helper()
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestExecBackendMatchesLocal is the distributed determinism gate: the
// same scenario on subprocess workers must marshal byte-identically to
// the in-process run.
func TestExecBackendMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 1234))

	pool := NewPool(2, 1234)
	pool.SetBackend(newTestExecBackend(t, 2, "serve"))
	remote := runWire(t, pool)

	a, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("exec-backend results diverge from local:\nlocal:  %s\nremote: %s", a, b)
	}
	if remote[0].Cells != local[0].Cells {
		t.Errorf("cell accounting differs: local %d, remote %d", local[0].Cells, remote[0].Cells)
	}
}

// TestExecBackendNegotiatesBinary: exec members are fleet members — a
// JSON hello/welcome per worker, then bin1 frames carrying the work —
// without disturbing result bytes.
func TestExecBackendNegotiatesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 777))

	pool := NewPool(2, 777)
	backend := newTestExecBackend(t, 1, "serve")
	pool.SetBackend(backend)
	remote := runWire(t, pool)

	if !bytes.Equal(mustJSON(t, local), mustJSON(t, remote)) {
		t.Error("exec fleet results diverge from local")
	}
	st := backend.BackendStats()[0]
	if st.Joins != 1 || len(st.Workers) != 1 || st.Workers[0].Cells != st.Cells || st.Cells == 0 {
		t.Errorf("exec member missing from the fleet stats: %+v", st)
	}
	if st.WireBinaryBytes == 0 || st.WireJSONBytes == 0 {
		t.Errorf("want a JSON handshake and bin1 work frames: %+v", st)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecBackendPropagatesCellErrors checks an application-level cell
// failure crosses the wire as that cell's error, not a transport fault.
func TestExecBackendPropagatesCellErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-failing"}})
	if err == nil || !strings.Contains(err.Error(), "detonated") {
		t.Fatalf("err = %v, want the detonating cell's error", err)
	}
}

// runWithin runs the _exec-wire scenario on pool and fails the test if
// the run takes longer than limit, so a regression fails instead of
// hanging.
func runWithin(t *testing.T, pool *Pool, limit time.Duration) ([]Report, error) {
	t.Helper()
	type outcome struct {
		reports []Report
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{reports, err}
	}()
	select {
	case o := <-done:
		return o.reports, o.err
	case <-time.After(limit):
		t.Fatalf("the run hung for %v", limit)
		return nil, nil
	}
}

// TestExecBackendKilledWorkerSurfacesRootCause is the no-hang gate: a
// worker that dies mid-chunk must produce a diagnosable error promptly.
// With no member left the run fails at once (a spawned fleet gains no
// members mid-run), and the next Run respawns the dead member.
func TestExecBackendKilledWorkerSurfacesRootCause(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	backend := newTestExecBackend(t, 1, "die")
	pool.SetBackend(backend)

	for id := 0; id < 2; id++ {
		_, err := runWithin(t, pool, 30*time.Second)
		if err == nil {
			t.Fatal("a killed worker produced no error")
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("exec worker %d", id)) || !strings.Contains(msg, "going down for the kill test") {
			t.Errorf("run %d: error lacks root cause (worker id + stderr): %v", id, err)
		}
	}
	if st := backend.BackendStats()[0]; st.Joins != 2 || st.Leaves != 2 {
		t.Errorf("dead worker not respawned for the second run: joins=%d leaves=%d", st.Joins, st.Leaves)
	}
}

// TestExecBackendBatchTimeoutKillsWedgedWorker: a worker that hangs
// (rather than exits) would stall the run forever; the batch timeout
// must kill it, surface the stderr post-mortem, and fail the run
// promptly once no worker is left to take the chunk.
func TestExecBackendBatchTimeoutKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	backend := newTestExecBackend(t, 1, "wedge")
	backend.BatchTimeout = 500 * time.Millisecond
	pool.SetBackend(backend)

	_, err := runWithin(t, pool, 30*time.Second)
	if err == nil {
		t.Fatal("a wedged worker produced no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "exec worker 0") || !strings.Contains(msg, "batch timeout") || !strings.Contains(msg, "wedged and will never answer") {
		t.Errorf("error lacks the timeout diagnosis + stderr post-mortem: %v", err)
	}
}

// TestExecFleetNeverSpeculates: no fleet runs a cell twice. A chunk that
// takes a second while the other member sits idle must still be sent
// only once.
func TestExecFleetNeverSpeculates(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	logPath := filepath.Join(t.TempDir(), "requests.jsonl")
	backend := newTestExecBackend(t, 2, "sluggish")
	backend.Env = append(backend.Env, workerLogEnvVar+"="+logPath)
	NewPool(1, 0).SetBackend(backend)
	specs := []CellSpec{{Scenario: "_exec-wire", Scope: "_exec-wire", Shard: 0, Params: Params{Trials: 1}}}
	if _, err := backend.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(log, []byte("\n")); n != 1 {
		t.Errorf("the one chunk was sent %d times, want once", n)
	}
}

// TestExecHandshakeBoundedByBatchTimeout: a host command such as ssh or
// a queued job may be slow to start a member, so its hello is bounded by
// BatchTimeout rather than the TCP handshake timeout, and canceling the
// run kills members still starting up.
func TestExecHandshakeBoundedByBatchTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	specs := []CellSpec{{Scenario: "_exec-wire", Scope: "_exec-wire", Shard: 0, Params: Params{Trials: 1}}}
	run := func(t *testing.T, ctx context.Context, b *ExecBackend) error {
		t.Helper()
		start := time.Now()
		_, err := b.Run(ctx, specs)
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("a mute member held the run for %v", d)
		}
		return err
	}
	t.Run("timeout", func(t *testing.T) {
		b := newTestExecBackend(t, 1, "mute")
		b.BatchTimeout = 300 * time.Millisecond
		NewPool(1, 0).SetBackend(b)
		if err := run(t, context.Background(), b); err == nil || !strings.Contains(err.Error(), "hello") {
			t.Errorf("err = %v, want the hello timeout", err)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		b := newTestExecBackend(t, 1, "mute")
		NewPool(1, 0).SetBackend(b)
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		if err := run(t, ctx, b); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want the run's deadline", err)
		}
	})
}

// runRequeued runs _exec-wire on a two-member exec fleet in which one
// member plays mode, and checks that the other member finished the run
// byte-identical to local, with the same cell accounting and the lost
// chunk counted as retries.
func runRequeued(t *testing.T, mode string, seed uint64, batchTimeout time.Duration) {
	t.Helper()
	local := runWire(t, NewPool(2, seed))

	backend := newTestExecBackend(t, 2, mode)
	backend.Env = append(backend.Env, workerOnceEnvVar+"="+filepath.Join(t.TempDir(), "once"))
	backend.BatchTimeout = batchTimeout
	pool := NewPool(2, seed)
	pool.SetBackend(backend)
	fleet := runWire(t, pool)

	if !bytes.Equal(mustJSON(t, local), mustJSON(t, fleet)) {
		t.Errorf("requeued run diverges from local:\nlocal: %s\nfleet: %s", mustJSON(t, local), mustJSON(t, fleet))
	}
	if fleet[0].Cells != local[0].Cells {
		t.Errorf("requeue double-counted cells: local %d, fleet %d", local[0].Cells, fleet[0].Cells)
	}
	if st := backend.BackendStats()[0]; st.Retries == 0 || st.Leaves != 1 {
		t.Errorf("lost chunk not requeued: retries=%d leaves=%d", st.Retries, st.Leaves)
	}
}

// TestExecBatchTimeoutRequeuesOntoMulti: one exec member wedges holding
// a chunk; the batch timeout kills it and the chunk requeues onto the
// other member.
func TestExecBatchTimeoutRequeuesOntoMulti(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	runRequeued(t, "wedge", 642, 300*time.Millisecond)
}

// TestMixedRequeueCellAccounting: one exec member answers two chunks and
// dies holding a third. The requeued cells must neither change the
// results nor be counted twice.
func TestMixedRequeueCellAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	runRequeued(t, "flaky", 321, 0)
}

// TestExecBackendRejectsAnonymousCells: cells mapped without a scenario
// carry no address a worker can build, so wire backends must refuse
// them loudly.
func TestExecBackendRejectsAnonymousCells(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(1, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	_, err := mapCells(context.Background(), pool, "", Params{}, Cells("anon", 2,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return shard, nil }))
	if err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Fatalf("err = %v, want the not-addressable refusal", err)
	}
}

// TestServeWorkerProtocolRoundTrip drives the worker loop in-process
// over pipes: hello out, welcome in, one work frame in, its results
// frame out, and a clean shutdown on EOF.
func TestServeWorkerProtocolRoundTrip(t *testing.T) {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	defer respR.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeWorker(context.Background(), reqR, respW, WorkerOptions{Workers: 1}) }()

	var hello remoteHello
	if _, err := readJSONFrame(respR, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Proto != protoVersion {
		t.Fatalf("hello = %+v", hello)
	}
	params := Params{Trials: 4}
	specs := make([]CellSpec, params.Trials)
	for i := range specs {
		specs[i] = CellSpec{
			Scenario: "_exec-wire", Params: params, Scope: "_exec-wire",
			Shard: i, Seed: ShardSeed(42, "_exec-wire", i), RootSeed: 42,
		}
	}
	writeDone := make(chan error, 1)
	go func() {
		_, err := writeJSONFrame(reqW, remoteWelcome{Proto: protoVersion, HeartbeatMS: 10})
		if err == nil {
			err = writeMsg(reqW, wireMsg{kind: wireKindWork, seq: 7, cells: specs})
		}
		writeDone <- err
	}()
	var resp *wireMsg
	for resp == nil {
		m, _, err := readWireFrame(respR)
		if err != nil {
			t.Fatal(err)
		}
		if m.kind == wireKindResults {
			resp = m
		} else if m.kind != wireKindHeartbeat {
			t.Fatalf("frame kind %d from worker", m.kind)
		}
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if resp.seq != 7 || resp.err != "" || len(resp.results) != params.Trials {
		t.Fatalf("results frame seq=%d err=%q with %d results, want seq 7 and %d results", resp.seq, resp.err, len(resp.results), params.Trials)
	}
	for i, r := range resp.results {
		var cell wireCell
		if err := decodeInto(&resp.results[i], &cell); err != nil {
			t.Fatal(err)
		}
		if cell.Shard != r.Shard || cell.Seed != ShardSeed(42, "_exec-wire", r.Shard) {
			t.Errorf("result %d inconsistent: %+v", i, cell)
		}
	}

	reqW.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("ServeWorker returned %v on clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("ServeWorker did not stop on EOF")
	}
}

// TestFleetRefusesOldProtocol: the handshake refuses a version mismatch
// in both directions, and each side's error names both versions. A
// coordinator answers an old worker with a welcome carrying its own
// version, so the worker can say so too.
func TestFleetRefusesOldProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(1, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "old-proto"))
	_, err := runWithin(t, pool, 30*time.Second)
	coordinator := fmt.Sprintf("worker speaks protocol %d, want %d", protoVersion-1, protoVersion)
	worker := fmt.Sprintf("coordinator speaks protocol %d, want %d", protoVersion, protoVersion-1)
	if err == nil || !strings.Contains(err.Error(), coordinator) || !strings.Contains(err.Error(), worker) {
		t.Errorf("err = %v, want %q with the worker's %q", err, coordinator, worker)
	}

	// A current worker facing an old coordinator.
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	defer respR.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeWorker(context.Background(), reqR, respW, WorkerOptions{Workers: 1}) }()
	var hello remoteHello
	if _, err := readJSONFrame(respR, &hello); err != nil {
		t.Fatal(err)
	}
	if _, err := writeJSONFrame(reqW, remoteWelcome{Proto: protoVersion - 1}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("coordinator speaks protocol %d, want %d", protoVersion-1, protoVersion)
	if err := <-serveDone; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("ServeWorker err = %v, want %q", err, want)
	}
}

// TestFleetFailingCellEndsRun: a worker stops a chunk at its first
// failing cell, so its reply omits the chunk's later shards. The
// run must end there with the failing cell's own error — not orphan the
// omitted shards and hang, and not requeue them until the chunk runs out
// of dispatch attempts — on both transports. The tail case cuts
// _exec-failing-tail's 48 cells into 12-cell chunks on one worker, so
// every chunk holds at least 10 failing cells.
func TestFleetFailingCellEndsRun(t *testing.T) {
	cases := []struct {
		scenario string
		params   Params
		want     string
	}{
		{"_exec-failing", Params{Trials: 16}, "shard 5 detonated"},
		{"_exec-failing-tail", Params{}, "shard 2 detonated"},
	}
	for _, transport := range []string{"exec", "remote"} {
		for _, tc := range cases {
			transport, tc := transport, tc
			t.Run(transport+"/"+tc.scenario, func(t *testing.T) {
				pool := NewPool(2, 9)
				if transport == "exec" {
					if testing.Short() {
						t.Skip("spawns subprocess workers")
					}
					pool.SetBackend(newTestExecBackend(t, 1, "serve"))
				} else {
					startInProcWorker(t, startRemote(t, pool, &RemoteBackend{}))
				}
				done := make(chan error, 1)
				go func() {
					_, err := RunAll(context.Background(), pool, Options{Filters: []string{tc.scenario}, Params: tc.params})
					done <- err
				}()
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Errorf("err = %v, want %q", err, tc.want)
					}
				case <-time.After(30 * time.Second):
					t.Fatal("the run hung on the shards the failing cell's reply omitted")
				}
			})
		}
	}
}

// TestExecWorkerSharesTraceDir is the worker-side gate for the
// persistent trace tier: subprocess workers welcomed with the trace dir
// of the coordinator pool's store spill the traces they generate
// (visible as STBT files), a second worker fleet serves from those
// spills, and results stay byte-identical to the in-process run either
// way.
func TestExecWorkerSharesTraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	dir := t.TempDir()

	runTrace := func(t *testing.T, pool *Pool) []byte {
		t.Helper()
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-trace"}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	local := runTrace(t, NewPool(2, 77))

	fleetPool := func() *Pool {
		pool := NewPool(2, 77)
		if err := pool.Traces().SetDir(dir); err != nil {
			t.Fatal(err)
		}
		pool.SetBackend(newTestExecBackend(t, 1, "serve"))
		return pool
	}
	first := runTrace(t, fleetPool())
	if !bytes.Equal(local, first) {
		t.Error("trace-dir worker results diverge from local")
	}
	spills, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("worker spilled no traces into %s (err %v)", dir, err)
	}

	// A fresh worker fleet decodes the spill instead of regenerating;
	// replay must not notice the difference.
	second := runTrace(t, fleetPool())
	if !bytes.Equal(local, second) {
		t.Error("spill-served worker results diverge from local")
	}
}

// groupParams sizes the _exec-group runs that check how a coordinator
// cut its batch.
var groupParams = Params{Trials: 12, Records: 2_000}

// runGroupParams runs _exec-group at groupParams.
func runGroupParams(t *testing.T, pool *Pool) []byte {
	t.Helper()
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-group"}, Params: groupParams})
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, reports)
}

// checkGroupsWhole reads a work-frame key log (see logKeys) and checks
// that every key arrived in exactly one frame and no frame mixed keys.
func checkGroupsWhole(t *testing.T, logPath string) {
	t.Helper()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	requests := map[string]int{} // key → work frames carrying it
	cells := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var keys []string
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatalf("request log line %q: %v", line, err)
		}
		for _, k := range keys {
			if k != keys[0] {
				t.Errorf("one request mixes keys %q and %q", keys[0], k)
			}
		}
		requests[keys[0]]++
		cells += len(keys)
	}
	if cells != groupParams.Trials || len(requests) != 2 {
		t.Fatalf("requests carried %d cells under keys %v, want %d cells under 2 keys", cells, requests, groupParams.Trials)
	}
	for k, n := range requests {
		if n != 1 {
			t.Errorf("key %q arrived in %d requests, want 1", k, n)
		}
	}
}

// TestExecSendsEachLocalityGroupWhole: _exec-group's keys alternate
// shard by shard, so no group's cells are contiguous. The exec fleet
// must still ship each key's cells in a single work frame and never mix
// two keys in one, with results identical to local.
func TestExecSendsEachLocalityGroupWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runGroupParams(t, NewPool(2, 4242))

	logPath := filepath.Join(t.TempDir(), "requests.jsonl")
	backend := newTestExecBackend(t, 2, "log")
	backend.Env = append(backend.Env, workerLogEnvVar+"="+logPath)
	pool := NewPool(2, 4242)
	pool.SetBackend(backend)
	if !bytes.Equal(local, runGroupParams(t, pool)) {
		t.Error("grouped exec results diverge from local")
	}
	checkGroupsWhole(t, logPath)
}
