package harness

// Subprocess-backend tests re-exec this test binary as the worker: when
// the worker-mode env var is set, TestMain serves the frame protocol on
// stdio instead of running tests. Coordinator and worker therefore share
// one binary and one scenario registry, exactly like stbpu-suite and
// `stbpu-suite -worker`.

import (
	"bytes"
	"context"
	"encoding/json"
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
	workerEnvVar         = "STBPU_HARNESS_TEST_WORKER"
	workerTraceDirEnvVar = "STBPU_HARNESS_TEST_TRACEDIR"
	workerLogEnvVar      = "STBPU_HARNESS_TEST_REQUEST_LOG"
)

// wireCell is a cell payload exercising float/uint64 wire fidelity.
type wireCell struct {
	Shard int
	Seed  uint64
	Val   float64
}

// registerExecScenarios installs the deterministic scenarios both the
// coordinator tests and the re-exec'd worker need in their registries.
func registerExecScenarios() {
	Register(Scenario{
		Name:        "_exec-wire",
		Description: "exec-backend test scenario",
		Defaults:    Params{Trials: 16},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			return Map(ctx, pool, "_exec-wire", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (wireCell, error) {
					return wireCell{
						Shard: shard,
						Seed:  seed,
						Val:   math.Sqrt(float64(seed%1e6)) / 3,
					}, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-trace",
		Description: "exec-backend trace-store scenario",
		Defaults:    Params{Trials: 4, Records: 2_000},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			cache := pool.Traces()
			return Map(ctx, pool, "_exec-trace", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (uint64, error) {
					cols, _, err := cache.GetColumns("505.mcf", p.Records)
					if err != nil {
						return 0, err
					}
					digest := seed
					for i := 0; i < cols.Len(); i += 97 {
						digest = digest*1099511628211 ^ cols.PCs[i] ^ cols.Targets[i]
					}
					return digest, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-group",
		Description: "exec-backend locality-grouped trace scenario",
		Defaults:    Params{Trials: 8, Records: 2_000},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			workloads := []string{"505.mcf", "541.leela"}
			wl := func(shard int) string { return workloads[shard%len(workloads)] }
			cache := pool.Traces()
			return MapTraceMajor(ctx, pool, "_exec-group", p.Trials,
				func(shard int) int { return shard % len(workloads) },
				func(shard int) string { return Locality(wl(shard), p.Records) },
				func(ctx context.Context, shards []int, seeds []uint64) ([]uint64, error) {
					out := make([]uint64, len(shards))
					for i, shard := range shards {
						cols, _, err := cache.GetColumns(wl(shard), p.Records)
						if err != nil {
							return nil, err
						}
						digest := seeds[i]
						for j := 0; j < cols.Len(); j += 97 {
							digest = digest*1099511628211 ^ cols.PCs[j] ^ cols.Targets[j]
						}
						out[i] = digest
					}
					return out, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-failing",
		Description: "exec-backend failing-cell scenario",
		Defaults:    Params{Trials: 8},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			return Map(ctx, pool, "_exec-failing", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (int, error) {
					if shard == 5 {
						return 0, fmt.Errorf("shard %d detonated", shard)
					}
					return shard, nil
				})
		},
	})
}

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnvVar) {
	case "serve":
		registerExecScenarios()
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, WorkerOptions{
			Workers:  1,
			TraceDir: os.Getenv(workerTraceDirEnvVar),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die":
		// Simulate a worker killed mid-batch: swallow one request, leave a
		// trace on stderr, and vanish without answering.
		var req workerRequest
		_ = readFrame(os.Stdin, &req)
		fmt.Fprintln(os.Stderr, "worker going down for the kill test")
		os.Exit(3)
	case "wedge":
		// Simulate a hung (not dead) worker: swallow one request, then
		// block forever — the shape only a batch timeout can unstick.
		var req workerRequest
		_ = readFrame(os.Stdin, &req)
		fmt.Fprintln(os.Stderr, "worker wedged and will never answer")
		select {}
	case "remote-wedge":
		// A network worker for the kill -9 chaos test: join the fleet,
		// accept one chunk, announce it on stdout, then hang (still
		// heartbeating) until the test delivers SIGKILL.
		remoteWedgeWorkerMain()
	case "flaky":
		// Serve two batches correctly, then die mid-protocol — yields
		// exec Runs that partially succeeded before failing, the shape
		// that must not double-count cells once MultiBackend requeues.
		registerExecScenarios()
		served := 0
		for {
			var req workerRequest
			if err := readFrame(os.Stdin, &req); err != nil {
				os.Exit(0)
			}
			if served >= 2 {
				os.Exit(3)
			}
			served++
			resp := workerResponse{}
			if results, err := ExecuteCells(context.Background(), req.Cells, 1, nil); err != nil {
				resp.Err = err.Error()
			} else {
				resp.Results = results
			}
			if err := writeFrame(os.Stdout, resp); err != nil {
				os.Exit(1)
			}
		}
	case "log":
		// A JSON-only worker that appends one line per work request to
		// the file named by workerLogEnvVar — the locality key of each
		// cell in the request — so tests can see how the coordinator cut
		// its batch. The hello frame reads as an empty batch, as on an
		// old worker.
		registerExecScenarios()
		logFile, err := os.OpenFile(os.Getenv(workerLogEnvVar), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		for {
			var req workerRequest
			if err := readFrame(os.Stdin, &req); err != nil {
				os.Exit(0)
			}
			if len(req.Cells) > 0 {
				keys := make([]string, len(req.Cells))
				for i, c := range req.Cells {
					keys[i] = c.Locality
				}
				line, _ := json.Marshal(keys)
				if _, err := logFile.Write(append(line, '\n')); err != nil {
					os.Exit(1)
				}
			}
			resp := workerResponse{}
			if results, err := ExecuteCells(context.Background(), req.Cells, 1, nil); err != nil {
				resp.Err = err.Error()
			} else {
				resp.Results = results
			}
			if err := writeFrame(os.Stdout, resp); err != nil {
				os.Exit(1)
			}
		}
	}
	registerExecScenarios()
	os.Exit(m.Run())
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

// TestExecBackendNegotiatesBinary: a stock coordinator/worker pair must
// settle on the binary codec in the hello exchange and carry the actual
// work frames on it, without disturbing result bytes.
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
		t.Error("binary-codec exec results diverge from local")
	}
	st := backend.BackendStats()[0]
	if st.WireBinaryBytes == 0 {
		t.Errorf("negotiation never reached the binary codec: %+v", st)
	}
	if st.WireJSONBytes == 0 {
		t.Errorf("handshake frames should still be JSON-counted: %+v", st)
	}
}

// TestExecWirePinnedJSON: Wire "json" must pin the whole exchange to
// JSON frames — the escape hatch for old workers and debugging — with
// bytes still identical to local.
func TestExecWirePinnedJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 888))

	pool := NewPool(2, 888)
	backend := newTestExecBackend(t, 1, "serve")
	backend.Wire = "json"
	pool.SetBackend(backend)
	remote := runWire(t, pool)

	if !bytes.Equal(mustJSON(t, local), mustJSON(t, remote)) {
		t.Error("pinned-JSON exec results diverge from local")
	}
	st := backend.BackendStats()[0]
	if st.WireBinaryBytes != 0 {
		t.Errorf("pinned-JSON wire still moved %d binary bytes", st.WireBinaryBytes)
	}
	if st.WireJSONBytes == 0 {
		t.Error("pinned-JSON wire counted no frame bytes at all")
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

// TestExecBackendKilledWorkerSurfacesRootCause is the no-hang gate: a
// worker that dies mid-batch must produce a diagnosable error promptly.
func TestExecBackendKilledWorkerSurfacesRootCause(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "die"))

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("a killed worker produced no error")
		}
		msg := o.err.Error()
		if !strings.Contains(msg, "exec worker 0") || !strings.Contains(msg, "going down for the kill test") {
			t.Errorf("error lacks root cause (worker id + stderr): %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker hung the run instead of failing")
	}
}

// TestExecBackendBatchTimeoutKillsWedgedWorker: a worker that hangs
// (rather than exits) used to stall the run forever; the batch timeout
// must kill it, surface the stderr post-mortem, and fail the batch
// promptly so a router can requeue it.
func TestExecBackendBatchTimeoutKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	backend := newTestExecBackend(t, 1, "wedge")
	backend.BatchTimeout = 500 * time.Millisecond
	pool.SetBackend(backend)

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("a wedged worker produced no error")
		}
		msg := o.err.Error()
		if !strings.Contains(msg, "batch timeout") || !strings.Contains(msg, "wedged and will never answer") {
			t.Errorf("error lacks the timeout diagnosis + stderr post-mortem: %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged worker hung the run despite the batch timeout")
	}
}

// TestExecBatchTimeoutRequeuesOntoMulti: when the timed-out exec batch
// sits under a MultiBackend, the chunk must requeue onto the healthy
// backend and leave results byte-identical to a pure local run.
func TestExecBatchTimeoutRequeuesOntoMulti(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 642))

	wedged := newTestExecBackend(t, 1, "wedge")
	wedged.BatchTimeout = 500 * time.Millisecond
	multi := NewMultiBackend(
		WeightedBackend{Backend: wedged, Weight: 1},
		WeightedBackend{Backend: NewLocalBackend(2), Weight: 1},
	)
	pool := NewPool(2, 642)
	pool.SetBackend(multi)
	mixed := runWire(t, pool)

	a, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("timeout-requeued run diverges from local:\nlocal: %s\nmixed: %s", a, b)
	}
	retried := false
	for _, st := range multi.BackendStats() {
		if st.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Error("no retries recorded; the wedged backend's chunk was never requeued")
	}
}

// TestMixedRequeueCellAccounting: when exec workers fail batches that
// already had partial results, requeue onto the local backend must leave
// both the results and the cell accounting identical to a pure local
// run — cells from a failed batch may not be counted or streamed.
func TestMixedRequeueCellAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 321))

	multi := NewMultiBackend(
		WeightedBackend{Backend: newTestExecBackend(t, 2, "flaky"), Weight: 1},
		WeightedBackend{Backend: NewLocalBackend(2), Weight: 1},
	)
	pool := NewPool(2, 321)
	pool.SetBackend(multi)
	mixed := runWire(t, pool)

	a, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("requeued mixed run diverges from local:\nlocal: %s\nmixed: %s", a, b)
	}
	if mixed[0].Cells != local[0].Cells {
		t.Errorf("requeue double-counted cells: local %d, mixed %d", local[0].Cells, mixed[0].Cells)
	}
}

// TestExecBackendRejectsAnonymousCells: Map calls outside RunAll carry
// no scenario context, so wire backends must refuse them loudly.
func TestExecBackendRejectsAnonymousCells(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(1, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	_, err := Map(context.Background(), pool, "anon", 2,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return shard, nil })
	if err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Fatalf("err = %v, want the not-addressable refusal", err)
	}
}

// TestServeWorkerProtocolRoundTrip drives the worker loop in-process
// over pipes: one request frame in, one result frame out, clean EOF
// shutdown.
func TestServeWorkerProtocolRoundTrip(t *testing.T) {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeWorker(context.Background(), reqR, respW, WorkerOptions{Workers: 1}) }()

	params := Params{Trials: 4}
	specs := make([]CellSpec, params.Trials)
	for i := range specs {
		specs[i] = CellSpec{
			Scenario: "_exec-wire", Params: params, Scope: "_exec-wire",
			Shard: i, Seed: ShardSeed(42, "_exec-wire", i), RootSeed: 42,
		}
	}
	writeDone := make(chan error, 1)
	go func() { writeDone <- writeFrame(reqW, workerRequest{Cells: specs}) }()
	var resp workerResponse
	if err := readFrame(respR, &resp); err != nil {
		t.Fatal(err)
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" {
		t.Fatalf("worker error: %s", resp.Err)
	}
	if len(resp.Results) != params.Trials {
		t.Fatalf("got %d results, want %d", len(resp.Results), params.Trials)
	}
	for i, r := range resp.Results {
		var cell wireCell
		if err := decodeInto(&resp.Results[i], &cell); err != nil {
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

// TestExecWorkerSharesTraceDir is the worker-side gate for the
// persistent trace tier: subprocess workers pointed at a shared
// -trace-dir spill the traces they generate (visible as STBT files),
// a second worker fleet serves from those spills, and results stay
// byte-identical to the in-process run either way.
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

	newBackend := func() *ExecBackend {
		b := newTestExecBackend(t, 1, "serve")
		b.Env = append(b.Env, workerTraceDirEnvVar+"="+dir)
		return b
	}
	pool := NewPool(2, 77)
	pool.SetBackend(newBackend())
	first := runTrace(t, pool)
	if !bytes.Equal(local, first) {
		t.Error("trace-dir worker results diverge from local")
	}
	spills, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("worker spilled no traces into %s (err %v)", dir, err)
	}

	// A fresh worker fleet decodes the spill instead of regenerating;
	// replay must not notice the difference.
	pool2 := NewPool(2, 77)
	pool2.SetBackend(newBackend())
	second := runTrace(t, pool2)
	if !bytes.Equal(local, second) {
		t.Error("spill-served worker results diverge from local")
	}
}

// TestExecSendsEachLocalityGroupWhole: _exec-group's keys alternate
// shard by shard, so no group's cells are contiguous. The exec
// coordinator must still ship each key's cells in a single request and
// never mix two keys in one, with results identical to local.
func TestExecSendsEachLocalityGroupWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	params := Params{Trials: 12, Records: 2_000}
	run := func(pool *Pool) []byte {
		t.Helper()
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-group"}, Params: params})
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, reports)
	}
	local := run(NewPool(2, 4242))

	logPath := filepath.Join(t.TempDir(), "requests.jsonl")
	backend := newTestExecBackend(t, 2, "log")
	backend.Env = append(backend.Env, workerLogEnvVar+"="+logPath)
	pool := NewPool(2, 4242)
	pool.SetBackend(backend)
	if !bytes.Equal(local, run(pool)) {
		t.Error("grouped exec results diverge from local")
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	requests := map[string]int{} // key → requests carrying it
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
	if cells != params.Trials || len(requests) != 2 {
		t.Fatalf("requests carried %d cells under keys %v, want %d cells under 2 keys", cells, requests, params.Trials)
	}
	for k, n := range requests {
		if n != 1 {
			t.Errorf("key %q arrived in %d requests, want 1", k, n)
		}
	}
}
