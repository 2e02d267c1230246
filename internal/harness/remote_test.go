package harness

// Chaos-style tests for the elastic RemoteBackend fleet. The hard
// invariant under test everywhere: results are byte-identical to the
// in-process run at any fleet shape — workers joining late, dying
// mid-chunk (kill -9), answering slowly, holding a chunk past the batch
// timeout, or answering batch errors — and no cell is sent twice while
// its worker lives.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const remoteAddrEnvVar = "STBPU_HARNESS_TEST_ADDR"

// remoteWedgeWorkerMain is the TestMain body for the remote-wedge
// worker mode: handshake, take one chunk, print a marker, keep
// heartbeating, and wait for the SIGKILL the test aims at us.
func remoteWedgeWorkerMain() {
	conn, err := net.Dial("tcp", os.Getenv(remoteAddrEnvVar))
	if err != nil {
		fmt.Fprintln(os.Stderr, "wedge worker:", err)
		os.Exit(1)
	}
	welcome, err := scriptedHello(conn, "wedge")
	if err != nil {
		os.Exit(1)
	}
	go func() {
		for {
			time.Sleep(time.Duration(welcome.HeartbeatMS) * time.Millisecond)
			if writeMsg(conn, wireMsg{kind: wireKindHeartbeat}) != nil {
				os.Exit(1)
			}
		}
	}()
	work, err := readWork(conn)
	if err != nil {
		os.Exit(1)
	}
	fmt.Printf("WEDGED %d\n", len(work.cells))
	select {}
}

// startRemote installs a backend in pool and binds it (closing it on
// cleanup), returning the coordinator address workers should dial.
func startRemote(t *testing.T, pool *Pool, b *RemoteBackend) string {
	t.Helper()
	pool.SetBackend(b)
	addr, err := b.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return addr.String()
}

// startInProcWorker serves the fleet protocol from a goroutine in this
// process (sharing the test registry), stopping on test cleanup.
func startInProcWorker(t *testing.T, addr string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ServeRemoteWorker(ctx, addr, WorkerOptions{Workers: 1})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// dialScriptedWorker handshakes a hand-rolled worker connection for
// tests that need protocol-level misbehavior, returning the conn and
// the welcome. The conn closes on cleanup.
func dialScriptedWorker(t *testing.T, addr, name string) (net.Conn, remoteWelcome) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	welcome, err := scriptedHello(conn, name)
	if err != nil {
		t.Fatal(err)
	}
	return conn, welcome
}

func reportBytes(t *testing.T, reports []Report) []byte {
	t.Helper()
	b, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fleetStats(t *testing.T, b *RemoteBackend) BackendStats {
	t.Helper()
	stats := b.BackendStats()
	if len(stats) != 1 || stats[0].Backend != "remote" {
		t.Fatalf("fleet stats implausible: %+v", stats)
	}
	return stats[0]
}

// TestRemoteBackendMatchesLocal is the fleet determinism gate: the same
// scenario on two TCP workers must marshal byte-identically to the
// in-process run, with every cell accounted to exactly one worker.
// Affinity is scheduling metadata only, so keyed groups dispatched by
// plain work sharing must match too.
func TestRemoteBackendMatchesLocal(t *testing.T) {
	off := false
	for _, tc := range []struct {
		name string
		b    *RemoteBackend
		run  func(*testing.T, *Pool) []byte
	}{
		{"wire", &RemoteBackend{}, func(t *testing.T, p *Pool) []byte { return reportBytes(t, runWire(t, p)) }},
		{"group-affinity-off", &RemoteBackend{Affinity: &off}, runGroupParams},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			local := tc.run(t, NewPool(2, 1234))

			pool := NewPool(2, 1234)
			addr := startRemote(t, pool, tc.b)
			startInProcWorker(t, addr)
			startInProcWorker(t, addr)
			// The run is short enough to finish before a slow second
			// handshake; late joins are TestRemoteBackendLateJoin's subject.
			waitJoins(t, tc.b, 2)
			remote := tc.run(t, pool)

			if !bytes.Equal(local, remote) {
				t.Errorf("remote fleet results diverge from local:\nlocal:  %s\nremote: %s", local, remote)
			}
			st := fleetStats(t, tc.b)
			if st.Joins != 2 || st.Cells == 0 {
				t.Errorf("fleet stats: joins=%d cells=%d, want 2 joins and nonzero cells", st.Joins, st.Cells)
			}
			var sum, hits uint64
			for _, w := range st.Workers {
				sum += w.Cells
				hits += w.AffinityHits
			}
			if sum != st.Cells {
				t.Errorf("per-worker cells sum %d != fleet total %d", sum, st.Cells)
			}
			if tc.b.Affinity != nil && hits != 0 {
				t.Errorf("affinity off still recorded %d affinity hits", hits)
			}
		})
	}
}

// TestRemoteBackendLateJoin: a Run launched against an empty fleet must
// sit in the join grace window and complete bit-identically once a
// worker finally dials in — the elasticity the fleet exists for.
func TestRemoteBackendLateJoin(t *testing.T) {
	local := runWire(t, NewPool(2, 77))

	b := &RemoteBackend{}
	pool := NewPool(2, 77)
	addr := startRemote(t, pool, b)

	type outcome struct {
		reports []Report
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{reports, err}
	}()

	// Join one worker once the run is already pending, and a second one
	// later still — the fleet must absorb both without disturbing bytes.
	time.Sleep(100 * time.Millisecond)
	startInProcWorker(t, addr)
	time.Sleep(50 * time.Millisecond)
	startInProcWorker(t, addr)

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(reportBytes(t, local), reportBytes(t, o.reports)) {
			t.Error("late-join fleet results diverge from local")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run never completed after workers joined")
	}
	// The first worker joined a pending run; the second may only have
	// finished its handshake after the (tiny) run drained — poll.
	deadline := time.After(10 * time.Second)
	for fleetStats(t, b).Joins != 2 {
		select {
		case <-deadline:
			t.Fatalf("joins = %d, want 2", fleetStats(t, b).Joins)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRemoteBackendWorkerKilledMidChunk is the kill -9 chaos gate: a
// subprocess worker takes a chunk, the test SIGKILLs it mid-execution,
// and the chunk must requeue onto a replacement worker with the final
// bytes identical to local.
func TestRemoteBackendWorkerKilledMidChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 4321))

	b := &RemoteBackend{}
	pool := NewPool(2, 4321)
	addr := startRemote(t, pool, b)

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), workerEnvVar+"=remote-wedge", remoteAddrEnvVar+"="+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	type outcome struct {
		reports []Report
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{reports, err}
	}()

	// Wait until the subprocess holds a chunk, then kill -9 it.
	marker, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil || !strings.HasPrefix(marker, "WEDGED") {
		t.Fatalf("wedge worker never reported a chunk: %q, %v", marker, err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	startInProcWorker(t, addr)

	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(reportBytes(t, local), reportBytes(t, o.reports)) {
			t.Error("killed-worker fleet results diverge from local")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run hung after the worker was killed")
	}
	st := fleetStats(t, b)
	if st.Leaves == 0 || st.Retries == 0 {
		t.Errorf("kill left no trace in stats: leaves=%d retries=%d", st.Leaves, st.Retries)
	}
}

// startHeartbeatingWorker handshakes a scripted TCP worker that
// heartbeats at the welcome's cadence and hands each work frame to
// serve, sending back the frame serve returns (nothing when it returns
// nil). stop closes when the test ends, so a serve that waits can give
// up; cleanup waits for the worker's goroutines.
func startHeartbeatingWorker(t *testing.T, addr, name string, serve func(work *wireMsg, stop <-chan struct{}) *wireMsg) {
	t.Helper()
	conn, welcome := dialScriptedWorker(t, addr, name)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(stop)
		conn.Close()
		wg.Wait()
	})
	var wmu sync.Mutex
	write := func(m wireMsg) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeMsg(conn, m)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Duration(welcome.HeartbeatMS) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if write(wireMsg{kind: wireKindHeartbeat}) != nil {
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			work, err := readWork(conn)
			if err != nil {
				return
			}
			if reply := serve(work, stop); reply != nil && write(*reply) != nil {
				return
			}
		}
	}()
}

// TestRemoteFleetSendsEachCellOnce: a fleet runs each cell once. Of two
// live, correct workers the first to join holds every reply 1.5 s; the
// other, idle long before that, must not be sent its cells, and the
// bytes still match local.
func TestRemoteFleetSendsEachCellOnce(t *testing.T) {
	local := runWire(t, NewPool(2, 555))

	b := &RemoteBackend{}
	pool := NewPool(2, 555)
	addr := startRemote(t, pool, b)
	var mu sync.Mutex
	sent := map[int]int{}
	for i, delay := range []time.Duration{1500 * time.Millisecond, 0} {
		delay := delay
		startHeartbeatingWorker(t, addr, fmt.Sprint("w", i), func(work *wireMsg, stop <-chan struct{}) *wireMsg {
			mu.Lock()
			for _, c := range work.cells {
				sent[c.Shard]++
			}
			mu.Unlock()
			reply := answer(work)
			select {
			case <-time.After(delay):
				return &reply
			case <-stop:
				return nil
			}
		})
		waitJoins(t, b, uint64(i+1))
	}

	remote, err := runWithin(t, pool, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, local), reportBytes(t, remote)) {
		t.Error("slow-worker fleet results diverge from local")
	}
	mu.Lock()
	defer mu.Unlock()
	for shard := 0; shard < int(local[0].Cells); shard++ {
		if n := sent[shard]; n != 1 {
			t.Errorf("shard %d was sent %d times, want once", shard, n)
		}
	}
}

// TestRemoteBackendBatchTimeoutRequeues: a TCP worker that heartbeats
// but never answers is dropped once it holds a chunk past BatchTimeout,
// and its chunk requeues onto the rest of the fleet.
func TestRemoteBackendBatchTimeoutRequeues(t *testing.T) {
	local := runWire(t, NewPool(2, 808))

	b := &RemoteBackend{BatchTimeout: 300 * time.Millisecond}
	pool := NewPool(2, 808)
	addr := startRemote(t, pool, b)
	startHeartbeatingWorker(t, addr, "mute", func(*wireMsg, <-chan struct{}) *wireMsg { return nil })
	waitJoins(t, b, 1)
	startInProcWorker(t, addr)
	waitJoins(t, b, 2)

	remote, err := runWithin(t, pool, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportBytes(t, local), reportBytes(t, remote)) {
		t.Error("timed-out-worker fleet results diverge from local")
	}
	if st := fleetStats(t, b); st.Leaves == 0 || st.Retries == 0 {
		t.Errorf("the batch timeout left no trace in stats: leaves=%d retries=%d", st.Leaves, st.Retries)
	}
}

// TestRemoteBackendHeartbeatTimeout: a worker that goes silent (no
// heartbeats, no results) while holding a chunk must be declared dead
// after the heartbeat timeout and its chunk requeued.
func TestRemoteBackendHeartbeatTimeout(t *testing.T) {
	local := runWire(t, NewPool(2, 99))

	b := &RemoteBackend{HeartbeatTimeout: 300 * time.Millisecond}
	pool := NewPool(2, 99)
	addr := startRemote(t, pool, b)

	// The silent worker accepts chunks and then says nothing at all.
	silentConn, _ := dialScriptedWorker(t, addr, "silent")
	go func() {
		for {
			if _, err := readWork(silentConn); err != nil {
				return
			}
		}
	}()
	startInProcWorker(t, addr)

	remote := runWire(t, pool)
	if !bytes.Equal(reportBytes(t, local), reportBytes(t, remote)) {
		t.Error("silent-worker fleet results diverge from local")
	}
	st := fleetStats(t, b)
	if st.Leaves == 0 {
		t.Errorf("silent worker was never declared dead: %+v", st)
	}
}

// TestRemoteBackendTransientWorkerErrorRequeues: a worker replying a
// non-permanent batch error stays in the fleet and the chunk requeues
// (most likely elsewhere) rather than failing the run.
func TestRemoteBackendTransientWorkerErrorRequeues(t *testing.T) {
	local := runWire(t, NewPool(2, 11))

	b := &RemoteBackend{}
	pool := NewPool(2, 11)
	addr := startRemote(t, pool, b)

	// The grumpy worker rejects its first chunk with a transient error,
	// then behaves.
	conn, _ := dialScriptedWorker(t, addr, "grumpy")
	go func() {
		rejected := false
		for {
			work, err := readWork(conn)
			if err != nil {
				return
			}
			reply := answer(work)
			if !rejected {
				rejected = true
				reply = wireMsg{kind: wireKindResults, seq: work.seq, err: "scenario not on this build"}
			}
			if writeMsg(conn, reply) != nil {
				return
			}
		}
	}()
	startInProcWorker(t, addr)

	remote := runWire(t, pool)
	if !bytes.Equal(reportBytes(t, local), reportBytes(t, remote)) {
		t.Error("transient-error fleet results diverge from local")
	}
	st := fleetStats(t, b)
	if st.Retries == 0 {
		t.Error("rejected chunk was not requeued")
	}
	if st.Leaves != 0 {
		t.Errorf("transient error evicted the worker: %+v", st)
	}
}

// TestRemoteBackendShortReplyRequeues: a clean reply that leaves some of
// its chunk's shards out gets them requeued, and results stay identical
// to local.
func TestRemoteBackendShortReplyRequeues(t *testing.T) {
	local := runWire(t, NewPool(2, 11))

	b := &RemoteBackend{}
	pool := NewPool(2, 11)
	addr := startRemote(t, pool, b)
	// The lazy worker answers only the first half of every chunk.
	conn, _ := dialScriptedWorker(t, addr, "lazy")
	go func() {
		for {
			work, err := readWork(conn)
			if err != nil {
				return
			}
			reply := answer(work)
			reply.results = reply.results[:(len(reply.results)+1)/2]
			if writeMsg(conn, reply) != nil {
				return
			}
		}
	}()

	if !bytes.Equal(reportBytes(t, local), reportBytes(t, runWire(t, pool))) {
		t.Error("short-reply fleet results diverge from local")
	}
	if st := fleetStats(t, b); st.Retries == 0 {
		t.Error("the shards a short reply left out were not requeued")
	}
}

// TestRemoteBackendPermanentWorkerErrorFailsRun: a worker flagging its
// batch error permanent (a deterministic scenario bug that would repeat
// identically anywhere) must fail the run immediately, not ricochet
// around the fleet.
func TestRemoteBackendPermanentWorkerErrorFailsRun(t *testing.T) {
	b := &RemoteBackend{}
	addr := startRemote(t, NewPool(1, 0), b)
	conn, _ := dialScriptedWorker(t, addr, "perm")
	go func() {
		for {
			work, err := readWork(conn)
			if err != nil {
				return
			}
			if writeMsg(conn, wireMsg{kind: wireKindResults, seq: work.seq, err: "cell space mismatch", permanent: true}) != nil {
				return
			}
		}
	}()

	specs := []CellSpec{{Scenario: "_exec-wire", Scope: "_exec-wire", Shard: 0, Params: Params{Trials: 1}}}
	_, err := b.Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "cell space mismatch") {
		t.Fatalf("err = %v, want the worker's permanent error", err)
	}
	if !errors.Is(err, ErrPermanent) {
		t.Errorf("permanent flag lost across the wire: %v", err)
	}
	if st := fleetStats(t, b); st.Retries != 0 {
		t.Errorf("permanent error was requeued %d times", st.Retries)
	}
}

// TestRemoteBackendFailsWithoutWorkers: an empty fleet must fail the
// run after the join grace with a diagnosable message, not hang.
func TestRemoteBackendFailsWithoutWorkers(t *testing.T) {
	b := &RemoteBackend{JoinGrace: 200 * time.Millisecond}
	startRemote(t, NewPool(1, 0), b)
	specs := []CellSpec{{Scenario: "_exec-wire", Scope: "_exec-wire", Shard: 0}}
	start := time.Now()
	_, err := b.Run(context.Background(), specs)
	if err == nil || !strings.Contains(err.Error(), "no workers") {
		t.Fatalf("err = %v, want the empty-fleet diagnosis", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("join grace failure took far longer than configured")
	}
}

// TestRemoteSendsEachLocalityGroupWhole is the TCP twin of
// TestExecSendsEachLocalityGroupWhole: two scripted fleet workers log
// the keys of every work frame, and each key must arrive whole, in one
// frame, with results identical to local.
func TestRemoteSendsEachLocalityGroupWhole(t *testing.T) {
	local := runGroupParams(t, NewPool(2, 4242))

	b := &RemoteBackend{}
	pool := NewPool(2, 4242)
	addr := startRemote(t, pool, b)
	logPath := filepath.Join(t.TempDir(), "requests.jsonl")
	var logMu sync.Mutex
	for _, name := range []string{"alpha", "beta"} {
		conn, _ := dialScriptedWorker(t, addr, name)
		go func() {
			for {
				work, err := readWork(conn)
				if err != nil {
					return
				}
				logMu.Lock()
				err = logKeys(logPath, work)
				logMu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if writeMsg(conn, answer(work)) != nil {
					return
				}
			}
		}()
	}
	waitJoins(t, b, 2)

	if !bytes.Equal(local, runGroupParams(t, pool)) {
		t.Error("grouped fleet results diverge from local")
	}
	checkGroupsWhole(t, logPath)
}
