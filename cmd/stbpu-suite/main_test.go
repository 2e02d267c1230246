package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"stbpu/internal/harness"
	"stbpu/internal/snapstore"
	"stbpu/internal/tracestore"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const workerEnvVar = "STBPU_SUITE_TEST_WORKER"

// TestMain lets this test binary double as the subprocess worker for the
// exec-backend tests: with the env var set it serves the fleet protocol
// on stdio — the same harness.ServeWorker loop `stbpu-suite -worker`
// runs — instead of running tests.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnvVar) == "1" {
		if err := harness.ServeWorker(context.Background(), os.Stdin, os.Stdout, harness.WorkerOptions{Workers: 1}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenConfig pins every knob that feeds the output bytes: fixed seed,
// fixed worker count (recorded in the document), timing suppressed, and a
// QuickScale-sized subset of scenarios that exercises float, int, bool,
// and nested-struct JSON. Sizing is trimmed below QuickScale so -race CI
// stays fast — the golden file guards bytes, not physics.
func goldenConfig() config {
	return config{
		filters: []string{"fig3", "thresholds", "covert"},
		seed:    1,
		workers: 2,
		timing:  false,
		stderr:  io.Discard,
		params: harness.Params{
			Records:      20_000,
			MaxWorkloads: 4,
			Bits:         128,
			Trials:       2,
		},
	}
}

func TestGoldenSuiteOutput(t *testing.T) {
	doc, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "quick.golden.json", doc)
}

// cpuGoldenConfig pins the CPU-model figures (Figs. 4-6): the golden
// set above never reaches the cycle model, the SMT co-run or the
// re-randomization sweep.
func cpuGoldenConfig() config {
	return config{
		filters: []string{"fig4", "fig5", "fig6"},
		seed:    1,
		workers: 2,
		timing:  false,
		stderr:  io.Discard,
		params: harness.Params{
			Records:      10_000,
			MaxWorkloads: 4,
			MaxPairs:     4,
		},
	}
}

// TestGoldenCPUFigures pins Figs. 4-6 byte for byte. The trace and
// snapshot store counters are left out: they record cache residency,
// not results.
func TestGoldenCPUFigures(t *testing.T) {
	doc, err := runSuite(context.Background(), cpuGoldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	doc.TraceStore = tracestore.Stats{}
	doc.SnapStore = snapstore.Stats{}
	checkGolden(t, "cpu.golden.json", doc)
}

// checkGolden compares doc's bytes with testdata/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, doc suiteDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/stbpu-suite -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("suite output diverged from %s (%d vs %d bytes); rerun with -update if the change is intended",
			golden, buf.Len(), len(want))
	}
}

// TestExecBackendMatchesLocalGolden is the acceptance gate for the
// distributed path: the quick golden scenario set run on subprocess
// workers must produce byte-identical result JSON to the in-process run,
// modulo the per-backend stats and trace-store blocks (the coordinator's
// trace store sits idle when workers generate their own traces).
func TestExecBackendMatchesLocalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	local := goldenConfig()
	remote := goldenConfig()
	remote.backend = "exec"
	remote.execWorkers = 2
	remote.workerCmd = []string{exe}
	remote.workerEnv = []string{workerEnvVar + "=1"}

	docLocal, err := runSuite(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}
	docRemote, err := runSuite(context.Background(), remote)
	if err != nil {
		t.Fatal(err)
	}
	if len(docRemote.Backends) != 1 || docRemote.Backends[0].Backend != "exec" || docRemote.Backends[0].Cells == 0 {
		t.Errorf("exec run backend stats implausible: %+v", docRemote.Backends)
	}
	// Normalize the blocks the comparison is explicitly modulo of.
	normalizePlacement(&docLocal)
	normalizePlacement(&docRemote)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docRemote)) {
		t.Error("exec-backend suite output diverges from local")
	}
}

// TestRemoteBackendMatchesLocalGolden is the fleet-level acceptance
// gate: the golden scenario set coordinated over loopback TCP across
// two workers must produce a suite document byte-identical to the
// in-process run, modulo placement stats, with both workers visible in
// the fleet stats block.
func TestRemoteBackendMatchesLocalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker fleet")
	}
	docLocal, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	docRemote := runLoopbackFleet(t, goldenConfig())

	if len(docRemote.Backends) != 1 || docRemote.Backends[0].Backend != "remote" {
		t.Fatalf("fleet stats block missing: %+v", docRemote.Backends)
	}
	fleet := docRemote.Backends[0]
	if fleet.Cells == 0 || fleet.Joins != 2 || len(fleet.Workers) != 2 {
		t.Errorf("fleet stats implausible: %+v", fleet)
	}
	normalizePlacement(&docLocal)
	normalizePlacement(&docRemote)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docRemote)) {
		t.Error("remote-fleet suite output diverges from local")
	}
}

// TestRemoteFleetCPUFiguresMatchLocal runs Figs. 4-6 — the scenarios
// whose cells carry workload and SMT-pair locality keys without being
// trace-major groups — on a two-worker loopback fleet: keyed chunks are
// routed by affinity, and the document must still equal the in-process
// run byte for byte.
func TestRemoteFleetCPUFiguresMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker fleet")
	}
	cfg := config{
		filters: []string{"fig4", "fig5", "fig6"},
		seed:    5,
		workers: 2,
		timing:  false,
		stderr:  io.Discard,
		params: harness.Params{
			Records: 8000, MaxWorkloads: 3, MaxPairs: 3, Budget: 200,
		},
	}
	docLocal, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	docRemote := runLoopbackFleet(t, cfg)

	if len(docRemote.Backends) != 1 || len(docRemote.Runs) != 3 {
		t.Fatalf("fleet ran %d scenarios, stats %+v", len(docRemote.Runs), docRemote.Backends)
	}
	var routed uint64
	for _, w := range docRemote.Backends[0].Workers {
		routed += w.AffinityHits + w.AffinityMisses
	}
	if routed == 0 {
		t.Errorf("no Fig. 4-6 chunk carried a locality key: %+v", docRemote.Backends[0])
	}
	normalizePlacement(&docLocal)
	normalizePlacement(&docRemote)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docRemote)) {
		t.Error("remote-fleet Figs. 4-6 output diverges from local")
	}
}

// runLoopbackFleet runs cfg on the remote backend with two in-process
// workers dialing a loopback coordinator. Workers join with empty
// options as soon as the coordinator reports its port, and exit when
// runSuite closes the backend (their connections drop).
func runLoopbackFleet(t *testing.T, cfg config) suiteDoc {
	t.Helper()
	cfg.backend = "remote"
	cfg.listen = "127.0.0.1:0"
	addrCh := make(chan string, 1)
	cfg.listenReady = func(addr string) { addrCh <- addr }

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
	doc, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	workers.Wait()
	return doc
}

// TestExecResumeAllScenarios widens the exec + resume byte-identity
// gate to every registered scenario at tiny scale — the golden subset
// (fig3/thresholds/covert) never touches fig6Cell, ittageCell, or the
// other cell types whose wire fidelity would silently rot if a field
// lost its export.
func TestExecResumeAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario, spawns subprocess workers")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tiny := config{
		seed:    3,
		workers: 2,
		timing:  false,
		stderr:  io.Discard,
		params: harness.Params{
			Records: 8000, MaxWorkloads: 2, MaxPairs: 2,
			Trials: 2, Bits: 32, Budget: 200,
		},
	}
	docLocal, err := runSuite(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}

	// Journal a full local run, keep a prefix (a killed run), then
	// resume it on the exec backend: every scenario's remaining cells
	// cross the wire AND splice against journaled ones.
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	journaled := tiny
	journaled.journal = journal
	if _, err := runSuite(context.Background(), journaled); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if err := os.WriteFile(journal, bytes.Join(lines[:len(lines)/2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := tiny
	resumed.journal = journal
	resumed.resume = true
	resumed.backend = "exec"
	resumed.execWorkers = 2
	resumed.workerCmd = []string{exe}
	resumed.workerEnv = []string{workerEnvVar + "=1"}
	docResumed, err := runSuite(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if len(docResumed.Runs) < 12 {
		t.Fatalf("only %d scenarios ran", len(docResumed.Runs))
	}
	normalizePlacement(&docLocal)
	normalizePlacement(&docResumed)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docResumed)) {
		t.Error("exec-resumed all-scenario document diverges from the local run")
	}
}

// TestTraceMajorOffMatchesOn pins the scheduling flag's contract: the
// golden scenario set produces byte-identical documents under grouped
// trace-major scheduling (the default) and per-cell model-major
// scheduling, modulo trace-store counters — grouping changes how often
// the cache is consulted, never what the cells compute.
func TestTraceMajorOffMatchesOn(t *testing.T) {
	docOn, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	off := goldenConfig()
	off.modelMajor = true
	docOff, err := runSuite(context.Background(), off)
	if err != nil {
		t.Fatal(err)
	}
	normalizePlacement(&docOn)
	normalizePlacement(&docOff)
	if !bytes.Equal(docBytes(t, docOn), docBytes(t, docOff)) {
		t.Error("model-major suite output diverges from trace-major")
	}
}

// snapConfig selects the scenarios that exercise the predictor-state
// snapshot tier: the phase-structured workloads (checkpoint at phase
// boundaries) and the warm-state curve (single-pass preset warmup).
func snapConfig() config {
	cfg := goldenConfig()
	cfg.filters = []string{"workloads", "warmup"}
	return cfg
}

// TestSnapshotsOffMatchesOn is the snapshot tier's suite-level
// acceptance gate: checkpoint-restored warmup must be bit-identical to
// full prefix replay — the tier buys time, never different physics.
// Model-major scheduling makes every later-phase cell its own group, so
// each joins mid-trace and restores a checkpoint; that run must match
// both a model-major full-replay run and the trace-major default, and
// must actually engage the tier, or the comparison passes vacuously.
func TestSnapshotsOffMatchesOn(t *testing.T) {
	mm := snapConfig()
	mm.modelMajor = true
	docOn, err := runSuite(context.Background(), mm)
	if err != nil {
		t.Fatal(err)
	}
	if st := docOn.SnapStore; st.Puts == 0 || st.Hits == 0 {
		t.Errorf("snapshot tier never engaged: %+v", st)
	}
	off := snapConfig()
	off.modelMajor = true
	off.snapshotsOff = true
	docOff, err := runSuite(context.Background(), off)
	if err != nil {
		t.Fatal(err)
	}
	if st := docOff.SnapStore; st.Puts != 0 || st.Hits != 0 {
		t.Errorf("-snapshots=false still touched the tier: %+v", st)
	}
	docTM, err := runSuite(context.Background(), snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	normalizePlacement(&docOn)
	normalizePlacement(&docOff)
	normalizePlacement(&docTM)
	ref := docBytes(t, docOn)
	if !bytes.Equal(ref, docBytes(t, docOff)) {
		t.Error("snapshot-restored suite output diverges from full replay")
	}
	if !bytes.Equal(ref, docBytes(t, docTM)) {
		t.Error("model-major snapshot run diverges from the trace-major default")
	}
}

// TestSnapDirSecondRunHitsDisk pins the checkpoint disk tier end to
// end: a first run spills .snap files, and a second process restores
// them. The second run squeezes the in-memory store to one byte so
// every restore must come off disk — without that, its own puts would
// satisfy the gets from memory and the disk path would go untested.
// All runs, plus a full-replay run, must be byte-identical modulo store
// counters. A trace-major rerun re-puts every boundary checkpoint, but the
// bytes are already on disk, so it must write no spill at all.
func TestSnapDirSecondRunHitsDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := snapConfig()
	cfg.snapDir = dir

	first, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.SnapStore; st.DiskWrites == 0 {
		t.Fatalf("first run spilled no checkpoints: %+v", st)
	}

	rerun, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := rerun.SnapStore; st.Puts == 0 || st.DiskWrites != 0 || st.DiskErrors != 0 {
		t.Fatalf("trace-major rerun rewrote unchanged spills: %+v", st)
	}

	warm := snapConfig()
	warm.snapDir = dir
	warm.modelMajor = true
	warm.snapBytes = 1
	second, err := runSuite(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.SnapStore; st.DiskHits == 0 {
		t.Fatalf("second run did not restore from disk: %+v", st)
	}

	bare := snapConfig()
	bare.snapshotsOff = true
	replay, err := runSuite(context.Background(), bare)
	if err != nil {
		t.Fatal(err)
	}

	normalizePlacement(&first)
	normalizePlacement(&rerun)
	normalizePlacement(&second)
	normalizePlacement(&replay)
	ref := docBytes(t, first)
	if !bytes.Equal(ref, docBytes(t, rerun)) {
		t.Error("trace-major rerun diverges from the spilling run")
	}
	if !bytes.Equal(ref, docBytes(t, second)) {
		t.Error("disk-restored run diverges from the spilling run")
	}
	if !bytes.Equal(ref, docBytes(t, replay)) {
		t.Error("snapshot-tier runs diverge from full replay")
	}
}

// TestMmapTierMatchesDecode pins the zero-copy tier's contract through
// the whole suite: a cold run that spills STBT v2 files, a warm run
// that maps them, and a plain-decode run over the same directory must
// all produce the document an undisked run produces, modulo trace-store
// counters. The warm run must actually take the mmap path (on Linux,
// where CI runs) — a silent fallback to decode would pass the byte
// comparison while voiding the perf claim.
func TestMmapTierMatchesDecode(t *testing.T) {
	ref, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mm := goldenConfig()
	mm.traceDir = dir
	mm.traceMmap = true
	cold, err := runSuite(context.Background(), mm)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runSuite(context.Background(), mm)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		if cold.TraceStore.DiskWrites == 0 {
			t.Errorf("cold mmap run spilled nothing: %+v", cold.TraceStore)
		}
		if warm.TraceStore.MmapHits == 0 || warm.TraceStore.Generations != 0 {
			t.Errorf("warm run did not map the spilled tier: %+v", warm.TraceStore)
		}
	}
	// Plain decode mode over the same directory: the v2 files must be
	// readable by the streaming decoder (format interop, not just mmap).
	dec := goldenConfig()
	dec.traceDir = dir
	decoded, err := runSuite(context.Background(), dec)
	if err != nil {
		t.Fatal(err)
	}
	normalizePlacement(&ref)
	for name, doc := range map[string]*suiteDoc{"cold": &cold, "warm": &warm, "decoded": &decoded} {
		normalizePlacement(doc)
		if !bytes.Equal(docBytes(t, ref), docBytes(t, *doc)) {
			t.Errorf("%s trace-tier suite output diverges from the undisked run", name)
		}
	}
}

// TestRemoteFleetTraceTierMatchesLocal runs the golden set on a
// two-worker loopback fleet with the shared mapped trace tier and
// trace-major scheduling — the full PR-7 configuration — and requires
// byte identity with the plain local run. Workers join with empty
// options and adopt the tier/scheduling modes from the welcome frame.
func TestRemoteFleetTraceTierMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker fleet")
	}
	docLocal, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}

	remote := goldenConfig()
	remote.traceDir = t.TempDir()
	remote.traceMmap = true
	docRemote := runLoopbackFleet(t, remote)

	normalizePlacement(&docLocal)
	normalizePlacement(&docRemote)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docRemote)) {
		t.Error("fleet + mapped-tier suite output diverges from local")
	}
}

// TestRemoteFleetSnapshotTierMatchesLocal runs the snapshot scenarios
// on a two-worker loopback fleet with a shared checkpoint directory.
// Workers join with empty options and adopt the snapshot mode and snap
// dir from the welcome frame — their spilled .snap files prove the
// adoption — and the fleet document must be byte-identical to both the
// local snapshot run and a local full-replay run.
func TestRemoteFleetSnapshotTierMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a TCP worker fleet")
	}
	docLocal, err := runSuite(context.Background(), snapConfig())
	if err != nil {
		t.Fatal(err)
	}
	replayCfg := snapConfig()
	replayCfg.snapshotsOff = true
	docReplay, err := runSuite(context.Background(), replayCfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	remote := snapConfig()
	remote.snapDir = dir
	docRemote := runLoopbackFleet(t, remote)

	if spills, err := filepath.Glob(filepath.Join(dir, "*.snap")); err != nil || len(spills) == 0 {
		t.Errorf("fleet workers spilled no checkpoints to the shared dir (%v, %v)", spills, err)
	}

	normalizePlacement(&docLocal)
	normalizePlacement(&docReplay)
	normalizePlacement(&docRemote)
	ref := docBytes(t, docLocal)
	if !bytes.Equal(ref, docBytes(t, docRemote)) {
		t.Error("fleet + snapshot-tier suite output diverges from local")
	}
	if !bytes.Equal(ref, docBytes(t, docReplay)) {
		t.Error("snapshot-tier output diverges from full replay")
	}
}

// normalizePlacement zeroes the blocks that legitimately differ when
// the same cells run in different places (or not at all, on resume):
// per-backend stats and the coordinator's trace-store and snap-store
// counters.
func normalizePlacement(doc *suiteDoc) {
	doc.Backends = nil
	doc.TraceStore = tracestore.Stats{}
	doc.SnapStore = snapstore.Stats{}
}

func docBytes(t *testing.T, doc suiteDoc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeDoc(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeProducesIdenticalDocument is the resume acceptance gate at
// the suite level: a journaled run interrupted partway (here simulated
// by truncating the journal to a prefix, the exact artifact a kill
// leaves) and restarted with -resume must produce a final document
// byte-identical to an uninterrupted run, modulo placement stats.
func TestResumeProducesIdenticalDocument(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")

	full := goldenConfig()
	full.journal = journal
	docFull, err := runSuite(context.Background(), full)
	if err != nil {
		t.Fatal(err)
	}

	// Keep a prefix of the journal — a run that died partway through.
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	cut := len(lines) * 2 / 3
	if err := os.WriteFile(journal, bytes.Join(lines[:cut], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := goldenConfig()
	resumed.journal = journal
	resumed.resume = true
	docResumed, err := runSuite(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}

	normalizePlacement(&docFull)
	normalizePlacement(&docResumed)
	if !bytes.Equal(docBytes(t, docFull), docBytes(t, docResumed)) {
		t.Error("resumed document differs from the uninterrupted run")
	}

	// The journal must be whole again after the resume.
	entries, err := harness.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(lines)-1 { // SplitAfter leaves a trailing empty slice
		t.Errorf("resumed journal holds %d entries, want %d", len(entries), len(lines)-1)
	}
}

// TestResumeExecBackendIdentical runs the same gate with cells on
// subprocess workers: journal entries recorded by a local run must
// satisfy an exec-backend resume and vice versa — the journal is keyed
// by cell address, which is backend-agnostic.
func TestResumeExecBackendIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")

	local := goldenConfig()
	docLocal, err := runSuite(context.Background(), local)
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1 on exec workers, journaled, covering a scenario subset —
	// a sweep that died between scenarios.
	pass1 := goldenConfig()
	pass1.filters = []string{"fig3"}
	pass1.journal = journal
	pass1.backend = "exec"
	pass1.execWorkers = 2
	pass1.workerCmd = []string{exe}
	pass1.workerEnv = []string{workerEnvVar + "=1"}
	if _, err := runSuite(context.Background(), pass1); err != nil {
		t.Fatal(err)
	}

	// Pass 2 resumes the full set on the exec backend.
	pass2 := goldenConfig()
	pass2.journal = journal
	pass2.resume = true
	pass2.backend = "exec"
	pass2.execWorkers = 2
	pass2.workerCmd = []string{exe}
	pass2.workerEnv = []string{workerEnvVar + "=1"}
	docResumed, err := runSuite(context.Background(), pass2)
	if err != nil {
		t.Fatal(err)
	}

	normalizePlacement(&docLocal)
	normalizePlacement(&docResumed)
	if !bytes.Equal(docBytes(t, docLocal), docBytes(t, docResumed)) {
		t.Error("exec-backend resumed document differs from a local uninterrupted run")
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	cfg := goldenConfig()
	cfg.resume = true
	if _, err := runSuite(context.Background(), cfg); err == nil {
		t.Error("-resume without -journal was accepted")
	}
}

// TestJournalRefusesToClobberWithoutResume: rerunning a crashed
// journaled command without -resume must not truncate the completed
// cells the journal exists to protect.
func TestJournalRefusesToClobberWithoutResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	cfg := goldenConfig()
	cfg.journal = journal
	if _, err := runSuite(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSuite(context.Background(), cfg) // same command, -resume forgotten
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("non-empty journal clobbered without -resume: err = %v", err)
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused run still modified the journal")
	}
}

// TestWorkerRejectsWelcomeFlags: a worker takes the run-shaping settings
// from the coordinator's welcome, so -worker refuses them when set away
// from their defaults, naming each one, and accepts its own budgets and
// defaults spelled out (as bench/traced.go's worker argv does).
func TestWorkerRejectsWelcomeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" means accepted
	}{
		{[]string{"-workers=1", "-cache-bytes=5", "-snap-bytes=5", "-trace-major=true", "-snapshots=true"}, ""},
		{[]string{"-trace-dir", "/shared/traces"}, "-worker does not take -trace-dir:"},
		{[]string{"-trace-major=false", "-snap-dir", "d", "-workload-spec", "w.json"}, "-snap-dir, -trace-major, -workload-spec"},
		{[]string{"-trace-mmap", "-snapshots=false"}, "-snapshots, -trace-mmap"},
	} {
		fs := flag.NewFlagSet("stbpu-suite", flag.ContinueOnError)
		fs.Int("workers", 0, "")
		fs.Int64("cache-bytes", 0, "")
		fs.Int64("snap-bytes", 0, "")
		fs.String("trace-dir", "", "")
		fs.Bool("trace-major", true, "")
		fs.Bool("trace-mmap", false, "")
		fs.Bool("snapshots", true, "")
		fs.String("snap-dir", "", "")
		fs.String("workload-spec", "", "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := checkWorkerFlags(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestListJSONEnumeratesScenarios(t *testing.T) {
	var buf bytes.Buffer
	if err := writeScenarioListJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var infos []scenarioInfo
	if err := json.Unmarshal(buf.Bytes(), &infos); err != nil {
		t.Fatalf("-list-json output is not valid JSON: %v", err)
	}
	byName := map[string]scenarioInfo{}
	for _, s := range infos {
		byName[s.Name] = s
	}
	fig3, ok := byName["fig3"]
	if !ok {
		t.Fatalf("fig3 missing from %d scenarios", len(infos))
	}
	if fig3.Defaults.Records != 120_000 {
		t.Errorf("fig3 default records = %d", fig3.Defaults.Records)
	}
	if fig6 := byName["fig6"]; len(fig6.Defaults.Sweep) == 0 {
		t.Errorf("fig6 default sweep missing: %+v", fig6.Defaults)
	}
	if len(infos) < 12 {
		t.Errorf("only %d scenarios listed", len(infos))
	}
}

// TestGoldenOutputWorkerInvariant re-runs the golden configuration at a
// different parallelism: only the recorded worker count may change, so
// the runs' results must match the golden file after normalization.
func TestGoldenOutputWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("repeat run; covered by TestGoldenSuiteOutput in short mode")
	}
	base := goldenConfig()
	alt := base
	alt.workers = 5
	docBase, err := runSuite(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	docAlt, err := runSuite(context.Background(), alt)
	if err != nil {
		t.Fatal(err)
	}
	docAlt.Workers = docBase.Workers
	for i := range docAlt.Runs {
		docAlt.Runs[i].Workers = docBase.Runs[i].Workers
	}
	var a, b bytes.Buffer
	if err := writeDoc(&a, docBase); err != nil {
		t.Fatal(err)
	}
	if err := writeDoc(&b, docAlt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("suite results depend on worker count")
	}
}

// TestTraceDirSecondRunHitsDisk is the acceptance gate for the
// persistent trace tier: a second run sharing -trace-dir must satisfy
// every trace from disk (zero generations) and still produce a
// document byte-identical to the first run and to the committed golden
// (modulo placement stats).
func TestTraceDirSecondRunHitsDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := goldenConfig()
	cfg.traceDir = dir

	first, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := first.TraceStore; st.DiskWrites == 0 || st.Generations == 0 {
		t.Fatalf("first run spilled nothing: %+v", st)
	}

	second, err := runSuite(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := second.TraceStore; st.Generations != 0 || st.DiskHits == 0 {
		t.Fatalf("second run did not serve from disk: %+v", st)
	}

	normalizePlacement(&first)
	normalizePlacement(&second)
	if !bytes.Equal(docBytes(t, first), docBytes(t, second)) {
		t.Error("trace-dir-served run diverges from the generating run")
	}

	// Against a tier-less run too: the tier must be invisible in
	// scenario results (and the tier-less run is itself pinned to the
	// committed golden by TestGoldenSuiteOutput).
	bare, err := runSuite(context.Background(), goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	normalizePlacement(&bare)
	if !bytes.Equal(docBytes(t, bare), docBytes(t, second)) {
		t.Error("trace-dir run diverges from the tier-less run")
	}
}
