package harness

// Tests for the locality-aware scheduler. The standing contract stays
// what it always was — bytes identical to the in-process run — with
// affinity routing and the preferred worker dying mid-group layered on
// top.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// runGroup runs the locality-grouped trace scenario, the workload shape
// affinity scheduling exists for.
func runGroup(t *testing.T, pool *Pool) []Report {
	t.Helper()
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-group"}})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// waitJoins polls until the fleet has admitted n workers.
func waitJoins(t *testing.T, b *RemoteBackend, n uint64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for fleetStats(t, b).Joins < n {
		select {
		case <-deadline:
			t.Fatalf("joins = %d, want %d", fleetStats(t, b).Joins, n)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestRemoteAffinityPreferredWorkerKilledMidGroup is the chaos gate for
// the scheduler: the sole worker — by construction the affinity-
// preferred home of every locality key — takes a chunk of the grouped
// scenario and is SIGKILLed holding it. Its keys must migrate to the
// replacement worker with the final bytes identical to local.
func TestRemoteAffinityPreferredWorkerKilledMidGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runGroup(t, NewPool(2, 6161))

	b := &RemoteBackend{}
	pool := NewPool(2, 6161)
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
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-group"}})
		done <- outcome{reports, err}
	}()

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
			t.Error("killed-preferred-worker results diverge from local")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run hung after the preferred worker was killed")
	}
	st := fleetStats(t, b)
	if st.Leaves == 0 || st.Retries == 0 {
		t.Errorf("kill left no trace in stats: leaves=%d retries=%d", st.Leaves, st.Retries)
	}
}

// placementRun drives two batches of the same four locality keys
// through two scripted workers and reports how many distinct (worker,
// key) placements occurred — the white-box proxy for redundant artifact
// loads — plus the fleet's affinity-hit count.
func placementRun(t *testing.T, affinity bool) (placements int, hits uint64) {
	t.Helper()
	b := &RemoteBackend{Affinity: &affinity}
	addr := startRemote(t, NewPool(1, 0), b)

	var mu sync.Mutex
	seen := map[string]struct{}{}
	serve := func(name string) {
		conn, _ := dialScriptedWorker(t, addr, name)
		go func() {
			for {
				work, err := readWork(conn)
				if err != nil {
					return
				}
				if len(work.cells) > 0 {
					mu.Lock()
					seen[name+"|"+work.cells[0].Locality] = struct{}{}
					mu.Unlock()
				}
				// A stand-in for compute: long enough that the other worker
				// stays busy too, so dispatch genuinely alternates.
				time.Sleep(25 * time.Millisecond)
				results := make([]CellResult, len(work.cells))
				for i, c := range work.cells {
					results[i] = CellResult{Shard: c.Shard, Value: json.RawMessage(strconv.Itoa(c.Shard))}
				}
				if writeMsg(conn, wireMsg{kind: wireKindResults, seq: work.seq, results: results}) != nil {
					return
				}
			}
		}()
	}
	// Join sequentially so the fleet names are deterministic per run.
	serve("alpha")
	waitJoins(t, b, 1)
	serve("beta")
	waitJoins(t, b, 2)

	// Pick four keys whose rendezvous preference splits 2/2 across the
	// two admitted workers, using their actual fleet names.
	st := fleetStats(t, b)
	if len(st.Workers) != 2 {
		t.Fatalf("fleet has %d workers, want 2", len(st.Workers))
	}
	nameA, nameB := st.Workers[0].Worker, st.Workers[1].Worker
	var forA, forB []string
	for i := 0; len(forA) < 2 || len(forB) < 2; i++ {
		key := Locality(fmt.Sprintf("wl%03d", i), 1000)
		if fnv1a(key+"\x00"+nameA) > fnv1a(key+"\x00"+nameB) {
			forA = append(forA, key)
		} else {
			forB = append(forB, key)
		}
	}
	// Each key is one chunk per batch, so one batch places every key
	// once under either policy. The second batch lists the keys in
	// another order: work sharing hands the oldest chunk to the oldest
	// idle worker and so moves keys, while affinity sends each key back
	// to the worker that served it.
	for _, keys := range [][]string{
		{forA[0], forB[0], forA[1], forB[1]},
		{forB[0], forA[0], forB[1], forA[1]},
	} {
		var specs []CellSpec
		for k, key := range keys {
			for j := 0; j < 8; j++ {
				specs = append(specs, CellSpec{Scope: "placement", Shard: k*8 + j, Locality: key})
			}
		}
		if _, err := b.Run(context.Background(), specs); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range fleetStats(t, b).Workers {
		hits += w.AffinityHits
	}
	mu.Lock()
	defer mu.Unlock()
	return len(seen), hits
}

// TestRemoteAffinityConsolidatesPlacement: with affinity on, each
// locality key should settle on one worker across batches (its
// artifacts load once); plain work sharing scatters the same keys
// across the fleet.
func TestRemoteAffinityConsolidatesPlacement(t *testing.T) {
	onPlacements, onHits := placementRun(t, true)
	offPlacements, _ := placementRun(t, false)
	if onHits == 0 {
		t.Error("affinity scheduling recorded no hits")
	}
	if onPlacements >= offPlacements {
		t.Errorf("affinity placements = %d, work sharing = %d; affinity should consolidate keys onto fewer workers",
			onPlacements, offPlacements)
	}
}

// The fleet benchmarks measure the end-to-end cost affinity removes:
// each iteration uses a fresh record count, so every locality key's
// trace must be generated anew on whichever workers receive its cells.
// Affinity routes each key to one home (one generation per key);
// round-robin makes both workers generate both workloads. Recorded by
// the bench gate for trend visibility, not threshold-gated (fleet
// timing is scheduling-sensitive).

func benchFleet(b *testing.B, affinity bool) {
	rb := &RemoteBackend{Affinity: &affinity}
	pool := NewPool(2, 42)
	pool.SetBackend(rb)
	addr, err := rb.Start()
	if err != nil {
		b.Fatal(err)
	}
	defer rb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go func() { _ = ServeRemoteWorker(ctx, addr.String(), WorkerOptions{Workers: 1}) }()
	}
	deadline := time.After(10 * time.Second)
	for rb.BackendStats()[0].Joins < 2 {
		select {
		case <-deadline:
			b.Fatal("workers never joined")
		case <-time.After(5 * time.Millisecond):
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := RunAll(ctx, pool, Options{
			Filters: []string{"_exec-group"},
			Params:  Params{Trials: 16, Records: 20_011 + i},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetWarmAffinity(b *testing.B)   { benchFleet(b, true) }
func BenchmarkFleetWarmRoundRobin(b *testing.B) { benchFleet(b, false) }
