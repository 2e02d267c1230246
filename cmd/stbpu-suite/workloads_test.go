package main

// Cross-backend determinism gates for the spec-driven workloads
// scenario: a -workload-spec run must produce byte-identical runs[]
// whether cells execute in-process, on subprocess workers, or on a
// loopback TCP fleet (both fleets get the spec by value in the welcome
// frame), under either scheduling mode, with or without the mapped
// trace tier, and across a kill-and-resume.

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"stbpu/internal/harness"
)

// testSpecDoc is a small two-phase, two-tenant spec exercising an
// explicit weight override, a gamma arrival, a burst modifier, and
// drift — every forwarding path must reproduce it exactly.
const testSpecDoc = `{
  "name": "xbackend",
  "tenants": [
    {"name": "web", "preset": "apache2_prefork_c64", "weight": 2},
    {"name": "db", "preset": "mysql_64con_50s", "weight": 1}
  ],
  "phases": [
    {"name": "calm", "records": 6000, "switch": {"model": "gamma", "mean": 900, "shape": 2}},
    {"name": "spike", "records": 6000, "switch": {"model": "geometric", "mean": 700},
     "weights": [1, 3], "drift": 0.01,
     "burst": {"period": 2000, "len": 400, "factor": 8}}
  ]
}`

// writeTestSpec materializes the fixture document for -workload-spec.
func writeTestSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "xbackend.json")
	if err := os.WriteFile(path, []byte(testSpecDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// specConfig pins the byte-stable configuration for the spec runs.
func specConfig(specPath string) config {
	return config{
		filters:      []string{"workloads"},
		seed:         11,
		workers:      2,
		timing:       false,
		stderr:       io.Discard,
		workloadSpec: specPath,
	}
}

// TestWorkloadSpecCrossBackendDeterminism: the same spec file run
// locally, model-major, through the mapped disk tier, on exec workers,
// and on a two-worker loopback fleet must yield byte-identical
// documents modulo placement stats. Workers of both fleets start bare
// and learn the spec from the welcome frame.
func TestWorkloadSpecCrossBackendDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers and a TCP fleet")
	}
	specPath := writeTestSpec(t)
	ref, err := runSuite(context.Background(), specConfig(specPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Runs) != 1 || ref.Runs[0].Cells == 0 {
		t.Fatalf("reference run implausible: %d runs", len(ref.Runs))
	}

	docs := map[string]suiteDoc{}

	// Model-major scheduling: grouping is pure scheduling.
	mm := specConfig(specPath)
	mm.modelMajor = true
	if docs["model-major"], err = runSuite(context.Background(), mm); err != nil {
		t.Fatal(err)
	}

	// Mapped disk tier: generate+spill cold, then map the spill warm.
	tier := specConfig(specPath)
	tier.traceDir = t.TempDir()
	tier.traceMmap = true
	if docs["mmap-cold"], err = runSuite(context.Background(), tier); err != nil {
		t.Fatal(err)
	}
	if docs["mmap-warm"], err = runSuite(context.Background(), tier); err != nil {
		t.Fatal(err)
	}

	// Exec workers: the test binary's worker gets no spec of its own, so
	// the run resolves only if the spec crosses in the welcome frame.
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ex := specConfig(specPath)
	ex.backend = "exec"
	ex.execWorkers = 2
	ex.workerCmd = []string{exe}
	ex.workerEnv = []string{workerEnvVar + "=1"}
	if docs["exec"], err = runSuite(context.Background(), ex); err != nil {
		t.Fatal(err)
	}

	// Remote fleet: two workers join with empty options and must learn
	// the spec from the coordinator's welcome frame.
	rm := specConfig(specPath)
	rm.backend = "remote"
	rm.listen = "127.0.0.1:0"
	addrCh := make(chan string, 1)
	rm.listenReady = func(addr string) { addrCh <- addr }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var workers sync.WaitGroup
	workers.Add(2)
	go func() {
		addr := <-addrCh
		for i := 0; i < 2; i++ {
			go func() {
				defer workers.Done()
				_ = harness.ServeRemoteWorker(ctx, addr, harness.WorkerOptions{Workers: 1})
			}()
		}
	}()
	if docs["remote"], err = runSuite(context.Background(), rm); err != nil {
		t.Fatal(err)
	}
	cancel()
	workers.Wait()

	normalizePlacement(&ref)
	want := docBytes(t, ref)
	for name, doc := range docs {
		normalizePlacement(&doc)
		if !bytes.Equal(want, docBytes(t, doc)) {
			t.Errorf("%s spec run diverges from the local reference", name)
		}
	}
}

// TestWorkloadSpecResumeAfterKill pins the crash-recovery contract for
// spec runs: a journaled run killed mid-write (simulated by truncating
// the journal inside its final line — the exact artifact kill -9
// leaves) and rerun with -resume must reproduce the uninterrupted
// document.
func TestWorkloadSpecResumeAfterKill(t *testing.T) {
	specPath := writeTestSpec(t)
	journal := filepath.Join(t.TempDir(), "run.jsonl")

	full := specConfig(specPath)
	full.journal = journal
	docFull, err := runSuite(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}

	// Keep half the entries plus a torn fragment of the next line.
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	cut := len(lines) / 2
	if cut == 0 {
		t.Fatalf("journal too small to truncate: %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:cut], nil), lines[cut][:len(lines[cut])/2]...)
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := specConfig(specPath)
	resumed.journal = journal
	resumed.resume = true
	docResumed, err := runSuite(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	normalizePlacement(&docFull)
	normalizePlacement(&docResumed)
	if !bytes.Equal(docBytes(t, docFull), docBytes(t, docResumed)) {
		t.Error("spec run resumed after a torn journal diverges from the uninterrupted run")
	}
}
